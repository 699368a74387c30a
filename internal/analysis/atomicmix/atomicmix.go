// Package atomicmix implements the schedlint analyzer that keeps the
// tree on typed atomics only.
//
// The package-level sync/atomic functions (atomic.AddInt64(&s.n, 1),
// atomic.LoadUint32(&s.state), ...) operate on plain words, so nothing
// stops another line from reading or writing the same word without
// them — a data race the race detector reports only when a run happens
// to interleave the two sides. The typed atomics (atomic.Int64 and
// friends) make that mistake unrepresentable: the value is reachable
// only through its methods. The repository uses them exclusively, and
// this analyzer keeps it that way with one rule: any call to a
// package-level sync/atomic Add*, Load*, Store*, Swap* or
// CompareAndSwap* function is a finding.
package atomicmix

import (
	"go/ast"
	"go/types"
	"strings"

	"repro/internal/analysis"
)

var Analyzer = &analysis.Analyzer{
	Name: "atomicmix",
	Doc:  "check that atomic access goes through the typed sync/atomic values, never the package-level functions on plain words",
	Run:  run,
}

// legacyOps are the name prefixes of the package-level functions that
// take the address of a plain word.
var legacyOps = []string{"Add", "Load", "Store", "Swap", "CompareAndSwap"}

func run(pass *analysis.Pass) error {
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			fn := analysis.StaticCallee(pass.Info, call)
			if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != "sync/atomic" ||
				fn.Type().(*types.Signature).Recv() != nil {
				return true
			}
			for _, op := range legacyOps {
				if strings.HasPrefix(fn.Name(), op) {
					pass.Reportf(call.Pos(),
						"sync/atomic.%s operates on a plain word that other code can still access non-atomically; declare the value as a typed atomic (atomic.Int64 and friends) and use its methods",
						fn.Name())
					break
				}
			}
			return true
		})
	}
	return nil
}
