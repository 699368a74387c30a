// Package analysis is the repository's static-analysis framework: a
// deliberately small, stdlib-only re-implementation of the
// golang.org/x/tools go/analysis surface that the schedlint analyzers
// (hotpath, puredecide, stridepad, atomicmix, metricsync) are written
// against.
//
// Why not depend on x/tools: the repository builds with the bare Go
// toolchain and no third-party modules, and the analyzers here need
// only a fraction of the upstream API — per-package AST+types passes,
// line-scoped suppression directives, and a string-valued fact store
// for the cross-package checks. Keeping the framework in-tree keeps
// `go build ./...` hermetic and makes the analyzer contract (the
// annotation grammar below) a reviewed part of this codebase rather
// than an external dependency's behavior.
//
// # Annotation grammar
//
// Annotations are directive comments (no space after //), documented
// in docs/LINT.md:
//
//	//schedlint:hotpath   on a function: its body and every statically
//	                      resolvable callee within the module must be
//	                      free of allocating constructs.
//	//schedlint:padded    on a struct type: its size must be a multiple
//	                      of the 128-byte anti-false-sharing stride,
//	                      and its 8-byte atomic fields must stay 8-byte
//	                      aligned on 32-bit targets.
//	//schedlint:ignore reason
//	                      on (or immediately above) a flagged line:
//	                      suppresses schedlint diagnostics for that
//	                      line. The reason is mandatory — an ignore
//	                      without a justification is itself reported.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// An Analyzer describes one schedlint analysis pass.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and CLI flags.
	Name string
	// Doc is the one-paragraph description `schedlint help` prints.
	Doc string
	// Run executes the analyzer over one package.
	Run func(*Pass) error
}

// A Pass provides one analyzer run with a single type-checked package
// and the reporting/fact plumbing supplied by the driver.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	// Files are the package's parsed source files, with comments.
	Files []*ast.File
	Pkg   *types.Package
	Info  *types.Info

	// ModulePath is the main module's path ("" when unknown, e.g. in
	// analysistest fixtures — analyzers then treat every package as
	// in-module).
	ModulePath string
	// ModuleDir is the main module's root directory, for analyzers
	// that consult repository files (metricsync reads
	// docs/METRICS.md). Empty when unknown.
	ModuleDir string

	// Report emits one diagnostic. The driver applies
	// //schedlint:ignore suppression after the analyzer returns.
	Report func(Diagnostic)

	// ExportFact publishes a package-scoped fact for downstream
	// packages; ImportedFacts returns the facts of every (transitively)
	// imported package, keyed by package path then fact key.
	ExportFact    func(key, value string)
	ImportedFacts func() map[string]map[string]string
}

// Reportf formats and emits one diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.Report(Diagnostic{Pos: pos, Message: fmt.Sprintf(format, args...)})
}

// InModule reports whether pkgPath belongs to the module under
// analysis. With no known module path every package is in scope (the
// fixture case).
func (p *Pass) InModule(pkgPath string) bool {
	if p.ModulePath == "" {
		return true
	}
	return pkgPath == p.ModulePath || strings.HasPrefix(pkgPath, p.ModulePath+"/")
}

// A Diagnostic is one finding, positioned in the analyzed package.
type Diagnostic struct {
	Pos     token.Pos
	Message string
}

// Directive names understood by the suite.
const (
	DirHotpath = "hotpath"
	DirPadded  = "padded"
	DirIgnore  = "ignore"
)

const directivePrefix = "//schedlint:"

// Directive is one parsed //schedlint: comment.
type Directive struct {
	Pos  token.Pos
	Name string // "hotpath", "padded", "ignore", ...
	Args string // the rest of the line, trimmed
}

// ParseDirective parses a single comment; ok is false when the comment
// is not a schedlint directive. Directive comments follow the Go
// convention: no space between // and the directive word.
func ParseDirective(c *ast.Comment) (Directive, bool) {
	text := c.Text
	if !strings.HasPrefix(text, directivePrefix) {
		return Directive{}, false
	}
	rest := strings.TrimPrefix(text, directivePrefix)
	name, args, _ := strings.Cut(rest, " ")
	name = strings.TrimSpace(name)
	if name == "" {
		return Directive{}, false
	}
	return Directive{Pos: c.Pos(), Name: name, Args: strings.TrimSpace(args)}, true
}

// HasDirective reports whether the comment group carries the named
// schedlint directive.
func HasDirective(g *ast.CommentGroup, name string) bool {
	if g == nil {
		return false
	}
	for _, c := range g.List {
		if d, ok := ParseDirective(c); ok && d.Name == name {
			return true
		}
	}
	return false
}

// FuncHasDirective reports whether fn's doc comment carries the named
// directive.
func FuncHasDirective(fn *ast.FuncDecl, name string) bool {
	return HasDirective(fn.Doc, name)
}

// TypeSpecHasDirective reports whether the type's doc (on the spec or
// its enclosing GenDecl) carries the named directive.
func TypeSpecHasDirective(decl *ast.GenDecl, spec *ast.TypeSpec, name string) bool {
	return HasDirective(spec.Doc, name) || HasDirective(spec.Comment, name) ||
		(decl != nil && len(decl.Specs) == 1 && HasDirective(decl.Doc, name))
}

// An IgnoreSet records, per file and line, the //schedlint:ignore
// directives of a package: a diagnostic is suppressed when its line —
// or the line immediately below an ignore comment standing on its own
// line — is covered by a directive with a non-empty justification.
type IgnoreSet struct {
	fset *token.FileSet
	// byLine maps filename:line to the directive covering that line.
	byLine map[string]Directive
}

// Ignores builds the IgnoreSet of the given files. Ignore directives
// with an empty justification are returned separately so the driver
// can report them: suppression without a recorded reason defeats the
// audit trail the directive exists to create.
func Ignores(fset *token.FileSet, files []*ast.File) (*IgnoreSet, []Diagnostic) {
	is := &IgnoreSet{fset: fset, byLine: make(map[string]Directive)}
	var bare []Diagnostic
	for _, f := range files {
		for _, g := range f.Comments {
			for _, c := range g.List {
				d, ok := ParseDirective(c)
				if !ok || d.Name != DirIgnore {
					continue
				}
				if d.Args == "" {
					bare = append(bare, Diagnostic{
						Pos:     d.Pos,
						Message: "schedlint:ignore requires a justification (//schedlint:ignore <reason>)",
					})
					continue
				}
				pos := fset.Position(c.Pos())
				// The directive covers its own line; a directive that
				// is the only thing on its line also covers the next
				// line, so it can sit above the code it excuses.
				is.byLine[key(pos.Filename, pos.Line)] = d
				is.byLine[key(pos.Filename, pos.Line+1)] = d
			}
		}
	}
	return is, bare
}

func key(file string, line int) string { return fmt.Sprintf("%s:%d", file, line) }

// Covers reports whether a diagnostic at pos is suppressed.
func (is *IgnoreSet) Covers(pos token.Pos) bool {
	if is == nil || !pos.IsValid() {
		return false
	}
	p := is.fset.Position(pos)
	_, ok := is.byLine[key(p.Filename, p.Line)]
	return ok
}

// SortDiagnostics orders diagnostics by position for deterministic
// output.
func SortDiagnostics(fset *token.FileSet, ds []Diagnostic) {
	sort.SliceStable(ds, func(i, j int) bool {
		pi, pj := fset.Position(ds[i].Pos), fset.Position(ds[j].Pos)
		if pi.Filename != pj.Filename {
			return pi.Filename < pj.Filename
		}
		if pi.Line != pj.Line {
			return pi.Line < pj.Line
		}
		return ds[i].Message < ds[j].Message
	})
}

// NamedTypePath returns the package path and type name of t's core
// named type, unwrapping pointers; ok is false for unnamed types.
func NamedTypePath(t types.Type) (pkgPath, name string, ok bool) {
	if ptr, isPtr := t.(*types.Pointer); isPtr {
		t = ptr.Elem()
	}
	named, isNamed := t.(*types.Named)
	if !isNamed {
		return "", "", false
	}
	obj := named.Obj()
	if obj.Pkg() == nil {
		return "", obj.Name(), true
	}
	return obj.Pkg().Path(), obj.Name(), true
}
