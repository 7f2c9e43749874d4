package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// SentErr keeps errors matchable by identity. In the error-producing packages
// of the storage stack — meta, rpc, blockdev — it requires errors that wrap
// package sentinels, flagging inside function bodies:
//
//   - fmt.Errorf with a constant format string that contains no %w verb
//     (an un-Is-able leaf error), and
//   - errors.New (leaf errors belong at package scope as sentinels, where
//     the var declaration names them; in a function body they are anonymous
//     and unmatchable).
//
// Package-level `var ErrX = errors.New(...)` declarations — the sentinels
// themselves — are the sanctioned pattern and are not flagged.
//
// In every package it flags the other side of the same bargain: a
// strings.Contains, HasPrefix, HasSuffix or Index whose subject is an error's
// Error() text or an rpc.RemoteError's Message. A refusal's kind crosses the
// wire in its status word and unwraps to its fsapi sentinel, so callers
// branch with errors.Is; the text quotes user names and can say anything.
var SentErr = &Analyzer{
	Name: "senterr",
	Doc:  "errors from meta/rpc/blockdev must wrap package sentinels (%w), not be bare strings; no code branches on an error's text",
	Run:  runSentErr,
}

// textMatchFuncs are the strings functions that branch on a substring.
var textMatchFuncs = map[string]bool{"Contains": true, "HasPrefix": true, "HasSuffix": true, "Index": true}

func runSentErr(pass *Pass) error {
	pkg := pass.Pkg.Name()
	leafRule := pkg == "meta" || pkg == "rpc" || pkg == "blockdev"
	for _, file := range pass.Files {
		if pass.IsTestFile(file.Pos()) {
			continue
		}
		for _, decl := range file.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			ast.Inspect(fn.Body, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				pkgPath, name, ok := pkgFuncCall(pass.Info, call)
				if !ok {
					return true
				}
				if pkgPath == "strings" && textMatchFuncs[name] && len(call.Args) > 0 && isErrorText(pass.Info, call.Args[0]) {
					pass.Reportf(call.Pos(),
						"strings.%s matches the text of an error: branch on its identity with errors.Is (a remote refusal unwraps to its fsapi sentinel)", name)
				}
				if !leafRule {
					return true
				}
				switch {
				case pkgPath == "errors" && name == "New":
					pass.Reportf(call.Pos(),
						"errors.New in a function body creates an unmatchable leaf error: declare a package sentinel (var ErrX = errors.New) and wrap it with fmt.Errorf(\"...: %%w\", ErrX)")
				case pkgPath == "fmt" && name == "Errorf" && len(call.Args) > 0:
					if format, ok := constFormat(call.Args[0]); ok && !strings.Contains(format, "%w") {
						pass.Reportf(call.Pos(),
							"fmt.Errorf without %%w is not errors.Is-able: wrap a package sentinel")
					}
				}
				return true
			})
		}
	}
	return nil
}

// isErrorText reports whether expr is the text of an error: x.Error() on a
// value whose type implements error, or the Message of an rpc.RemoteError.
func isErrorText(info *types.Info, expr ast.Expr) bool {
	switch e := ast.Unparen(expr).(type) {
	case *ast.CallExpr:
		sel, ok := ast.Unparen(e.Fun).(*ast.SelectorExpr)
		if !ok || sel.Sel.Name != "Error" || len(e.Args) != 0 {
			return false
		}
		recv := recvTypeOf(info, e)
		errType := types.Universe.Lookup("error").Type().Underlying().(*types.Interface)
		return recv != nil && types.Implements(recv, errType)
	case *ast.SelectorExpr:
		if e.Sel.Name != "Message" {
			return false
		}
		s, ok := info.Selections[e]
		return ok && isNamedType(s.Recv(), "rpc", "RemoteError")
	}
	return false
}

// constFormat extracts a string literal format argument, if it is one.
func constFormat(expr ast.Expr) (string, bool) {
	lit, ok := ast.Unparen(expr).(*ast.BasicLit)
	if !ok || lit.Kind != token.STRING {
		return "", false
	}
	// Trim the quote characters; escapes inside do not matter for a %w scan.
	s := lit.Value
	if len(s) >= 2 {
		s = s[1 : len(s)-1]
	}
	return s, true
}
