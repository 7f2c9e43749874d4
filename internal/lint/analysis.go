// Package lint is redbud's static-analysis suite: a small, dependency-free
// equivalent of golang.org/x/tools/go/analysis (which cannot be vendored
// here) plus eight project-specific analyzers that mechanically enforce the
// invariants DESIGN.md states in prose:
//
//   - lockorder: the namespace → inode-stripe → intent → ns-intent →
//     delegation → journal lock hierarchy of the MDS metadata hot path, and
//     "no tracked lock held across a blocking channel operation or RPC
//     call".
//   - durability: the paper's ordered-write rule — a commit RPC may only be
//     issued on paths dominated by a durability wait; in the MDS no daemon
//     waits for the journal, and a store Begin<Op> carries the handler's
//     modeled instant, not the zero time or a fresh Now().
//   - simclock: virtual-time determinism — no wall-clock time or global
//     math/rand source outside package main, test files, and sites
//     explicitly annotated `//lint:allow wallclock`.
//   - senterr: errors returned from internal/meta, internal/rpc and
//     internal/blockdev wrap package sentinel errors (errors.Is-able)
//     instead of being bare fmt.Errorf strings, and no package branches on
//     an error's text (strings.Contains and kin on Error() or a
//     RemoteError's Message).
//   - hotpath: functions annotated `//redbud:hotpath` (the 0-allocs/op
//     frame send/recv and journal append paths) stay free of
//     heap-allocating constructs — fmt formatting, unsized append growth,
//     capturing closures.
//   - wiresym: every MarshalWire/UnmarshalWire pair (and PutX/GetX helper
//     pair) produces identical field sequences — order, width, loop and
//     optional nesting — per the wire-schema extractor.
//   - wireevolve: optional wire fields are trailing and guarded by
//     r.Remaining().
//   - wirealias: slices from r.BytesRef() alias a pooled receive frame and
//     must not be stored through receivers/parameters/globals or sent on
//     channels without a copy.
//
// The analyzers run over type-checked packages loaded either from the module
// tree (standalone `redbud-lint ./...`), from a `go vet -vettool` config, or
// from testdata fixtures (lintest).
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Analyzer is one static check. The API mirrors
// golang.org/x/tools/go/analysis.Analyzer closely enough that the analyzers
// could be ported to a real multichecker without structural change.
type Analyzer struct {
	Name string
	Doc  string
	// AllowToken is the token accepted in `//lint:allow <token>` comments to
	// suppress this analyzer at a site. Defaults to Name.
	AllowToken string
	Run        func(*Pass) error
}

func (a *Analyzer) allowToken() string {
	if a.AllowToken != "" {
		return a.AllowToken
	}
	return a.Name
}

// Pass carries one analyzer run over one package.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	Files    []*ast.File
	Pkg      *types.Package
	Info     *types.Info

	diags *[]Diagnostic
}

// Diagnostic is one reported finding.
type Diagnostic struct {
	Analyzer string
	Pos      token.Position
	Message  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: %s: %s", d.Pos, d.Analyzer, d.Message)
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	*p.diags = append(*p.diags, Diagnostic{
		Analyzer: p.Analyzer.Name,
		Pos:      p.Fset.Position(pos),
		Message:  fmt.Sprintf(format, args...),
	})
}

// IsTestFile reports whether pos lies in a _test.go file. The invariants the
// suite enforces are about production code; tests deliberately construct
// malformed frames, wall-clock deadlines and bare errors.
func (p *Pass) IsTestFile(pos token.Pos) bool {
	return strings.HasSuffix(p.Fset.Position(pos).Filename, "_test.go")
}

// Analyzers is the full suite in the order the driver runs them.
func Analyzers() []*Analyzer {
	return []*Analyzer{LockOrder, Durability, SimClock, SentErr, Hotpath, WireSym, WireEvolve, WireAlias}
}

// Run executes the analyzers over one loaded package and returns the
// surviving diagnostics, sorted by position. Findings at sites suppressed by
// `//lint:allow <token>` comments (on the same line or the line above) are
// dropped.
func Run(pkg *Package, analyzers []*Analyzer) ([]Diagnostic, error) {
	allowed := allowedLines(pkg.Fset, pkg.Files)
	var out []Diagnostic
	for _, a := range analyzers {
		var diags []Diagnostic
		pass := &Pass{
			Analyzer: a,
			Fset:     pkg.Fset,
			Files:    pkg.Files,
			Pkg:      pkg.Types,
			Info:     pkg.Info,
			diags:    &diags,
		}
		if err := a.Run(pass); err != nil {
			return nil, fmt.Errorf("%s: %s: %v", a.Name, pkg.Path, err)
		}
		tok := a.allowToken()
		for _, d := range diags {
			if allowed[lineKey{d.Pos.Filename, d.Pos.Line}][tok] ||
				allowed[lineKey{d.Pos.Filename, d.Pos.Line - 1}][tok] {
				continue
			}
			out = append(out, d)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i].Pos, out[j].Pos
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		return out[i].Analyzer < out[j].Analyzer
	})
	return out, nil
}

type lineKey struct {
	file string
	line int
}

// allowedLines indexes `//lint:allow tok1 tok2` comments by file line.
func allowedLines(fset *token.FileSet, files []*ast.File) map[lineKey]map[string]bool {
	out := make(map[lineKey]map[string]bool)
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text := strings.TrimPrefix(c.Text, "//")
				text = strings.TrimSpace(text)
				rest, ok := strings.CutPrefix(text, "lint:allow")
				if !ok {
					continue
				}
				pos := fset.Position(c.Pos())
				key := lineKey{pos.Filename, pos.Line}
				if out[key] == nil {
					out[key] = make(map[string]bool)
				}
				for _, tok := range strings.Fields(rest) {
					// Tokens may carry a trailing justification after
					// a dash: `//lint:allow wallclock — real deployment`.
					if tok == "—" || tok == "-" || tok == "--" {
						break
					}
					out[key][tok] = true
				}
			}
		}
	}
	return out
}

// ---------------------------------------------------------------------------
// Shared type-query helpers used by the analyzers.

// namedOrigin unwraps pointers and aliases down to a *types.Named, if any.
func namedOrigin(t types.Type) *types.Named {
	for {
		switch u := t.(type) {
		case *types.Pointer:
			t = u.Elem()
		case *types.Alias:
			t = types.Unalias(u)
		case *types.Named:
			return u
		default:
			return nil
		}
	}
}

// isNamedType reports whether t (after deref) is the named type typeName
// declared in a package whose *name* (not path) is pkgName. Matching by
// package name rather than import path keeps the analyzers testable against
// fixture packages that mirror the real ones.
func isNamedType(t types.Type, pkgName, typeName string) bool {
	n := namedOrigin(t)
	if n == nil || n.Obj() == nil {
		return false
	}
	if n.Obj().Name() != typeName {
		return false
	}
	pkg := n.Obj().Pkg()
	return pkg != nil && pkg.Name() == pkgName
}

// calleeOf resolves the method or function object a call expression invokes,
// or nil for indirect calls (function values, etc.).
func calleeOf(info *types.Info, call *ast.CallExpr) types.Object {
	switch fn := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		return info.Uses[fn]
	case *ast.SelectorExpr:
		if sel, ok := info.Selections[fn]; ok {
			return sel.Obj()
		}
		return info.Uses[fn.Sel] // package-qualified call
	}
	return nil
}

// recvTypeOf returns the receiver type of a method call expression, or nil.
func recvTypeOf(info *types.Info, call *ast.CallExpr) types.Type {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return nil
	}
	if s, ok := info.Selections[sel]; ok {
		return s.Recv()
	}
	return nil
}

// pkgFuncCall reports whether call invokes the package-level function
// pkgPath.funcName (exact import path match, e.g. "time".Now).
func pkgFuncCall(info *types.Info, call *ast.CallExpr) (pkgPath, funcName string, ok bool) {
	obj := calleeOf(info, call)
	fn, isFn := obj.(*types.Func)
	if !isFn || fn.Pkg() == nil {
		return "", "", false
	}
	if sig, sok := fn.Type().(*types.Signature); sok && sig.Recv() != nil {
		return "", "", false // method, not package function
	}
	return fn.Pkg().Path(), fn.Name(), true
}
