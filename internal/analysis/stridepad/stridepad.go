// Package stridepad implements the schedlint analyzer that checks
// //schedlint:padded struct layouts.
//
// The lock-free structures in this repository pad their per-lane and
// per-tenant state to a 128-byte stride: 64 bytes is one cache line,
// but the L2 spatial prefetcher pulls adjacent line pairs, so two
// counters 64 bytes apart still false-share (the rationale is spelled
// out at the hzBox and sticky definitions in internal/relaxed). The
// padding is load-bearing and silent: adding a field to a padded
// struct compiles fine, shifts the stride, and turns into a
// double-digit throughput regression that only a perf rig notices.
// This analyzer makes the invariant structural: a struct annotated
// //schedlint:padded must
//
//   - have a size that is a non-zero multiple of 128 bytes under the
//     gc/amd64 size model (the performance target), and
//   - keep any directly declared 8-byte scalar field (int64/uint64 or
//     types with that underlying) 8-byte aligned under the gc/386
//     size model, where word size is 4: the legacy sync/atomic
//     functions fault on misaligned 8-byte operands on 32-bit
//     targets. Fields of the sync/atomic wrapper types are exempt —
//     they self-align via their embedded align64 marker, which the
//     go/types size model cannot see.
//
// Generic padded structs are sized at a representative instantiation
// (every type parameter bound to int). Most padded structs in this
// repository keep type parameters behind pointers (atomic.Pointer[T]),
// so any argument yields the layout the annotation vouches for. One
// holds a T inline — sched's handoff slot, whose envelope shares the
// state word's line — and pads past it by more than a stride, so what
// follows the slot stays a stride away for any T while the size checked
// here is the one at int.
package stridepad

import (
	"go/ast"
	"go/types"

	"repro/internal/analysis"
)

var Analyzer = &analysis.Analyzer{
	Name: "stridepad",
	Doc:  "check that //schedlint:padded structs end on the 128-byte anti-false-sharing stride",
	Run:  run,
}

// Stride is the anti-false-sharing unit: a cache-line pair, per the
// spatial-prefetcher rationale in internal/relaxed.
const Stride = 128

func run(pass *analysis.Pass) error {
	sizes64 := types.SizesFor("gc", "amd64")
	sizes32 := types.SizesFor("gc", "386")
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			gd, ok := decl.(*ast.GenDecl)
			if !ok {
				continue
			}
			for _, spec := range gd.Specs {
				ts, ok := spec.(*ast.TypeSpec)
				if !ok || !analysis.TypeSpecHasDirective(gd, ts, analysis.DirPadded) {
					continue
				}
				check(pass, ts, sizes64, sizes32)
			}
		}
	}
	return nil
}

func check(pass *analysis.Pass, ts *ast.TypeSpec, sizes64, sizes32 types.Sizes) {
	obj, ok := pass.Info.Defs[ts.Name].(*types.TypeName)
	if !ok {
		return
	}
	named, ok := obj.Type().(*types.Named)
	if !ok {
		pass.Reportf(ts.Name.Pos(), "schedlint:padded applies to defined struct types")
		return
	}
	t := types.Type(named)
	if tp := named.TypeParams(); tp != nil && tp.Len() > 0 {
		args := make([]types.Type, tp.Len())
		for i := range args {
			args[i] = types.Typ[types.Int]
		}
		inst, err := types.Instantiate(types.NewContext(), named, args, false)
		if err != nil {
			pass.Reportf(ts.Name.Pos(), "cannot size generic padded struct %s: %v", ts.Name.Name, err)
			return
		}
		t = inst
	}
	st, ok := t.Underlying().(*types.Struct)
	if !ok {
		pass.Reportf(ts.Name.Pos(), "schedlint:padded applies to struct types; %s is %s",
			ts.Name.Name, t.Underlying())
		return
	}

	size := sizes64.Sizeof(st)
	if size == 0 || size%Stride != 0 {
		pass.Reportf(ts.Name.Pos(),
			"padded struct %s is %d bytes; the anti-false-sharing stride is %d (adjust trailing padding by %d bytes)",
			ts.Name.Name, size, Stride, padDelta(size))
		return
	}

	// 32-bit atomic alignment of directly declared 8-byte scalars.
	n := st.NumFields()
	if n == 0 {
		return
	}
	fields := make([]*types.Var, n)
	for i := 0; i < n; i++ {
		fields[i] = st.Field(i)
	}
	offsets := sizes32.Offsetsof(fields)
	for i, f := range fields {
		if !isEightByteScalar(f.Type()) {
			continue
		}
		if offsets[i]%8 != 0 {
			pass.Reportf(ts.Name.Pos(),
				"padded struct %s: field %s sits at offset %d on 32-bit targets; 8-byte atomics require 8-byte alignment (hoist it to the front or use the sync/atomic types)",
				ts.Name.Name, f.Name(), offsets[i])
		}
	}
}

// padDelta reports how many bytes of trailing padding to add (positive)
// or remove (negative, when shrinking reaches the stride sooner).
func padDelta(size int64) int64 {
	over := size % Stride
	if over == 0 {
		return Stride // size 0: degenerate, ask for a full stride
	}
	return Stride - over
}

// isEightByteScalar reports whether t is a plain 8-byte integer a
// legacy atomic op could target. The sync/atomic wrapper types are
// excluded: their embedded align64 marker self-aligns them at runtime.
func isEightByteScalar(t types.Type) bool {
	if pkgPath, _, ok := analysis.NamedTypePath(t); ok && pkgPath == "sync/atomic" {
		return false
	}
	b, ok := t.Underlying().(*types.Basic)
	if !ok {
		return false
	}
	switch b.Kind() {
	case types.Int64, types.Uint64:
		return true
	}
	return false
}
