package lint

// wireevolve: the protocol-evolution rules that let a message grow an
// optional field without breaking a peer that never sends it.
//
// Rule 1 (trailing optionals): an optional field group must be the last
// thing in its sequence. A decoder detects its absence from a short frame;
// an optional in the middle would shift every later field. A corollary:
// optionals inside a repeated element are never evolvable, because
// elements are concatenated — there is no per-element frame boundary to
// detect absence from.
//
// Rule 2 (Remaining guards): a decoder-side optional must be guarded by
// r.Remaining(), the only way to distinguish "field absent" from a
// truncated frame. Encoders gate on whether the field says anything (a
// zero TraceCtx or DelegCtx stays off the wire).
//
// Rule 3 (version clamps): a version-gated capability flag decoded from a
// request must be stripped before acting on it unless the requesting
// session negotiated the required version. The rule is enforced on the MDS
// package: any function that consumes such a flag must also contain a
// clamp — a `&^=`/`&^` clearing of the flag under a condition that checks
// the session's protocol version.

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// WireEvolve checks protocol-evolution discipline.
var WireEvolve = &Analyzer{
	Name: "wireevolve",
	Doc:  "optional wire fields must be trailing and Remaining()-guarded; v2-gated flags must be version-clamped on the MDS",
	Run:  runWireEvolve,
}

// gatedFlags lists version-gated capability flags and the package whose
// request handlers must clamp them. Matching is by package name so fixture
// packages mirroring the real ones exercise the rule.
var gatedFlags = []struct {
	flagPkg, flagName string // the constant
	serverPkg         string // package that must clamp it
}{
	{"meta", "LayoutWantUncommitted", "mds"},
}

func runWireEvolve(pass *Pass) error {
	for _, s := range ExtractPassSchemas(pass) {
		checkEvolveSeq(pass, s, s.Enc, false, false)
		checkEvolveSeq(pass, s, s.Dec, true, false)
	}
	checkVersionClamps(pass)
	return nil
}

// checkEvolveSeq enforces rules 1 and 2 over one extracted sequence.
func checkEvolveSeq(pass *Pass, s *MessageSchema, seq []WireOp, isDecoder, inLoop bool) {
	for i, op := range seq {
		switch op.Kind {
		case "opt":
			switch {
			case inLoop:
				pass.Reportf(op.Pos, "%s: optional field group inside a repeated element is not evolvable: concatenated elements leave no frame boundary to detect absence from", s.DisplayName())
			case i != len(seq)-1:
				pass.Reportf(op.Pos, "%s: optional field group is not trailing: required fields follow it, so a peer that omits it misparses the rest of the frame", s.DisplayName())
			}
			if isDecoder && !op.Guarded {
				pass.Reportf(op.Pos, "%s: decoder-side optional is not guarded by r.Remaining(): a short frame from an older peer must decode as \"field absent\", not as garbage or an error", s.DisplayName())
			}
			checkEvolveSeq(pass, s, op.Body, isDecoder, inLoop)
		case "loop":
			checkEvolveSeq(pass, s, op.Body, isDecoder, true)
		}
	}
}

// checkVersionClamps enforces rule 3: in each server package, every function
// consuming a gated flag must contain a version clamp for it.
func checkVersionClamps(pass *Pass) {
	for _, gf := range gatedFlags {
		if pass.Pkg.Name() != gf.serverPkg {
			continue
		}
		for _, f := range pass.Files {
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil || pass.IsTestFile(fd.Pos()) {
					continue
				}
				firstUse := firstFlagUse(pass.Info, fd.Body, gf.flagPkg, gf.flagName)
				if !firstUse.IsValid() {
					continue
				}
				if !hasVersionClamp(pass.Info, fd.Body, gf.flagPkg, gf.flagName) {
					pass.Reportf(firstUse, "%s.%s is a v2-gated capability consumed without a protocol-version clamp: strip it for sub-version sessions (flags &^= %s.%s under a sessionVersion/ProtoV check) before acting on it",
						gf.flagPkg, gf.flagName, gf.flagPkg, gf.flagName)
				}
			}
		}
	}
}

// isGatedFlagUse reports whether n is a use of the constant pkgName.constName.
func isGatedFlagUse(info *types.Info, n ast.Node, pkgName, constName string) bool {
	id, ok := n.(*ast.Ident)
	if !ok {
		return false
	}
	obj, ok := info.Uses[id].(*types.Const)
	if !ok || obj.Name() != constName {
		return false
	}
	return obj.Pkg() != nil && obj.Pkg().Name() == pkgName
}

// firstFlagUse returns the position of the first use of the flag under n.
func firstFlagUse(info *types.Info, n ast.Node, pkgName, constName string) token.Pos {
	pos := token.NoPos
	ast.Inspect(n, func(n ast.Node) bool {
		if pos.IsValid() {
			return false
		}
		if isGatedFlagUse(info, n, pkgName, constName) {
			pos = n.Pos()
			return false
		}
		return true
	})
	return pos
}

// hasVersionClamp reports whether n contains an if statement whose condition
// mentions a protocol-version check and whose body clears the flag with
// AND-NOT.
func hasVersionClamp(info *types.Info, n ast.Node, pkgName, constName string) bool {
	found := false
	ast.Inspect(n, func(n ast.Node) bool {
		if found {
			return false
		}
		ifs, ok := n.(*ast.IfStmt)
		if !ok || !condChecksVersion(ifs.Cond) {
			return true
		}
		ast.Inspect(ifs.Body, func(m ast.Node) bool {
			if found {
				return false
			}
			if clearsFlag(info, m, pkgName, constName) {
				found = true
				return false
			}
			return true
		})
		return true
	})
	return found
}

// condChecksVersion heuristically recognises a protocol-version condition:
// it mentions a ProtoV* constant or calls something named *essionVersion.
func condChecksVersion(cond ast.Expr) bool {
	found := false
	ast.Inspect(cond, func(n ast.Node) bool {
		if found {
			return false
		}
		if id, ok := n.(*ast.Ident); ok {
			if strings.HasPrefix(id.Name, "ProtoV") || strings.Contains(id.Name, "essionVersion") {
				found = true
				return false
			}
		}
		return true
	})
	return found
}

// clearsFlag recognises `x &^= FLAG`, `x = x &^ FLAG` and `x &= ^FLAG`.
func clearsFlag(info *types.Info, n ast.Node, pkgName, constName string) bool {
	usesFlag := func(e ast.Expr) bool {
		return firstFlagUse(info, e, pkgName, constName).IsValid()
	}
	switch n := n.(type) {
	case *ast.AssignStmt:
		if len(n.Rhs) != 1 {
			return false
		}
		switch n.Tok {
		case token.AND_NOT_ASSIGN:
			return usesFlag(n.Rhs[0])
		case token.AND_ASSIGN:
			if u, ok := ast.Unparen(n.Rhs[0]).(*ast.UnaryExpr); ok && u.Op == token.XOR {
				return usesFlag(u.X)
			}
		case token.ASSIGN, token.DEFINE:
			if b, ok := ast.Unparen(n.Rhs[0]).(*ast.BinaryExpr); ok && b.Op == token.AND_NOT {
				return usesFlag(b.Y)
			}
		}
	}
	return false
}
