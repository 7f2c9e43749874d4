package lint

import (
	"go/ast"
	"go/types"
	"strings"
)

// Durability statically encodes the paper's ordered-write rule: a commit RPC
// may leave the client only after every write it covers is durable. In
// analyzer terms, every statement that sends OpCommit must be dominated — in
// source order within its function — by a durability wait:
//
//   - a call to (*sync.Cond).Wait() (the client's per-file durability
//     barrier, waitWritesLocked, loops on fs.cond.Wait() until nothing is
//     write-behind and pendingWrites has drained), or
//   - a call to a method or function whose name is WaitDurable or Sync, or
//   - a call to a same-package function that itself (transitively) contains
//     such a wait — e.g. buildCommit, which embeds the wait loop.
//
// Commit-send sites are calls to (*rpc.Client).Call / CallRaw whose first
// argument is the constant proto.OpCommit, and composite literals
// rpc.SubOp{Op: proto.OpCommit} (the compound-RPC path).
//
// On the server side the rule is the other way round: the MDS acknowledges a
// journaled operation only once its record is durable, but that wait belongs
// to the connection's completion stage, not to a daemon. Inside package mds a
// call to one of the wait-inline meta.Store wrappers (storeWaitInline) is a
// finding; handlers call the Begin<Op> half and return its wait as an
// rpc.Pending. A Begin<Op> takes the modeled instant its mutation is applied
// at, which the journal charges the record's batch from: inside package mds
// that instant must be one the handler carries (its rpc deadline, or the
// instant an unmodeled wait ended), so a Begin<Op> call whose instant
// argument is the zero time.Time{} or a fresh Now() call is a finding too.
var Durability = &Analyzer{
	Name: "durability",
	Doc:  "commit RPCs must be dominated by a durability wait (ordered-write rule); MDS daemons never wait for the journal",
	Run:  runDurability,
}

// storeWaitInline names the meta.Store methods that apply a journaled
// mutation and wait for its record before returning.
var storeWaitInline = map[string]bool{"Create": true, "Remove": true, "AllocLayout": true, "Commit": true}

func runDurability(pass *Pass) error {
	// Only the client and MDS issue commits; other packages are out of scope.
	switch pass.Pkg.Name() {
	case "client":
	case "mds":
		reportStoreWaits(pass)
	default:
		return nil
	}

	// Pass 1: compute the wait set W — package functions/methods that
	// (transitively) perform a durability wait — by fixpoint over the
	// same-package static call graph.
	waiters := make(map[types.Object]bool)
	type fnDecl struct {
		obj  types.Object
		decl *ast.FuncDecl
	}
	var decls []fnDecl
	for _, file := range pass.Files {
		for _, d := range file.Decls {
			fn, ok := d.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			obj := pass.Info.Defs[fn.Name]
			if obj == nil {
				continue
			}
			decls = append(decls, fnDecl{obj, fn})
			if containsBaseWait(pass, fn.Body) {
				waiters[obj] = true
			}
		}
	}
	for changed := true; changed; {
		changed = false
		for _, d := range decls {
			if waiters[d.obj] {
				continue
			}
			found := false
			ast.Inspect(d.decl.Body, func(n ast.Node) bool {
				if found {
					return false
				}
				if call, ok := n.(*ast.CallExpr); ok {
					if obj := calleeOf(pass.Info, call); obj != nil && waiters[obj] {
						found = true
					}
				}
				return true
			})
			if found {
				waiters[d.obj] = true
				changed = true
			}
		}
	}

	isWaitCall := func(call *ast.CallExpr) bool {
		if isBaseWait(pass, call) {
			return true
		}
		obj := calleeOf(pass.Info, call)
		return obj != nil && waiters[obj]
	}

	// Pass 2: in each function, every commit-send site must be preceded (in
	// source order) by a wait call.
	for _, d := range decls {
		if pass.IsTestFile(d.decl.Pos()) {
			continue
		}
		waited := false
		ast.Inspect(d.decl.Body, func(n ast.Node) bool {
			switch e := n.(type) {
			case *ast.CallExpr:
				if isWaitCall(e) {
					waited = true
				}
				if isCommitSend(pass, e) && !waited {
					pass.Reportf(e.Pos(),
						"commit RPC issued without a dominating durability wait (WaitDurable/Sync/cond.Wait): data must be durable before the commit leaves")
				}
			case *ast.CompositeLit:
				if isCommitSubOp(pass, e) && !waited {
					pass.Reportf(e.Pos(),
						"compound commit sub-op built without a dominating durability wait (WaitDurable/Sync/cond.Wait)")
				}
			}
			return true
		})
	}
	return nil
}

// reportStoreWaits flags every call to a wait-inline meta.Store wrapper, and
// every meta.Store Begin<Op> call that drops the handler's modeled instant,
// outside test files.
func reportStoreWaits(pass *Pass) {
	for _, file := range pass.Files {
		if pass.IsTestFile(file.Pos()) {
			continue
		}
		ast.Inspect(file, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			fn, ok := calleeOf(pass.Info, call).(*types.Func)
			if !ok || !isNamedType(recvTypeOf(pass.Info, call), "meta", "Store") {
				return true
			}
			switch {
			case storeWaitInline[fn.Name()]:
				pass.Reportf(call.Pos(),
					"meta.Store.%s waits for the journal on an MDS daemon: call Begin%s and return the wait as an rpc.Pending", fn.Name(), fn.Name())
			case strings.HasPrefix(fn.Name(), "Begin") && len(call.Args) > 0:
				if what := droppedInstant(pass, call.Args[0]); what != "" {
					pass.Reportf(call.Args[0].Pos(),
						"meta.Store.%s stamped with %s: pass the handler's modeled instant (its rpc deadline, or the instant a wait ended)", fn.Name(), what)
				}
			}
			return true
		})
	}
}

// droppedInstant names what expr is when it is not a carried modeled instant
// — the zero time.Time{} or a fresh Now() call — and returns "" otherwise.
func droppedInstant(pass *Pass, expr ast.Expr) string {
	switch e := ast.Unparen(expr).(type) {
	case *ast.CompositeLit:
		if tv, ok := pass.Info.Types[e]; ok && isNamedType(tv.Type, "time", "Time") && len(e.Elts) == 0 {
			return "the zero time"
		}
	case *ast.CallExpr:
		if fn, ok := calleeOf(pass.Info, e).(*types.Func); ok && fn.Name() == "Now" {
			return "a fresh Now()"
		}
	}
	return ""
}

// containsBaseWait reports whether body directly contains a durability wait.
func containsBaseWait(pass *Pass, body *ast.BlockStmt) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if found {
			return false
		}
		if call, ok := n.(*ast.CallExpr); ok && isBaseWait(pass, call) {
			found = true
		}
		return true
	})
	return found
}

// isBaseWait recognizes the primitive durability waits: (*sync.Cond).Wait,
// and any method/function literally named WaitDurable or Sync.
func isBaseWait(pass *Pass, call *ast.CallExpr) bool {
	obj := calleeOf(pass.Info, call)
	fn, ok := obj.(*types.Func)
	if !ok {
		return false
	}
	switch fn.Name() {
	case "WaitDurable", "Sync":
		return true
	case "Wait":
		return isNamedType(recvTypeOf(pass.Info, call), "sync", "Cond")
	}
	return false
}

// isCommitSend reports whether call is (*rpc.Client).Call/CallRaw with first
// argument proto.OpCommit.
func isCommitSend(pass *Pass, call *ast.CallExpr) bool {
	obj := calleeOf(pass.Info, call)
	fn, ok := obj.(*types.Func)
	if !ok {
		return false
	}
	switch fn.Name() {
	case "Call", "CallRaw":
	default:
		return false
	}
	if !isNamedType(recvTypeOf(pass.Info, call), "rpc", "Client") {
		return false
	}
	return len(call.Args) > 0 && isOpCommit(pass, call.Args[0])
}

// isCommitSubOp reports whether lit is rpc.SubOp{..., Op: proto.OpCommit, ...}.
func isCommitSubOp(pass *Pass, lit *ast.CompositeLit) bool {
	tv, ok := pass.Info.Types[lit]
	if !ok || !isNamedType(tv.Type, "rpc", "SubOp") {
		return false
	}
	for _, elt := range lit.Elts {
		kv, ok := elt.(*ast.KeyValueExpr)
		if !ok {
			continue
		}
		if key, ok := kv.Key.(*ast.Ident); ok && key.Name == "Op" && isOpCommit(pass, kv.Value) {
			return true
		}
	}
	return false
}

// isOpCommit reports whether expr resolves to the constant OpCommit from a
// package named proto.
func isOpCommit(pass *Pass, expr ast.Expr) bool {
	var id *ast.Ident
	switch e := ast.Unparen(expr).(type) {
	case *ast.SelectorExpr:
		id = e.Sel
	case *ast.Ident:
		id = e
	default:
		return false
	}
	obj := pass.Info.Uses[id]
	c, ok := obj.(*types.Const)
	if !ok || c.Name() != "OpCommit" {
		return false
	}
	return c.Pkg() != nil && c.Pkg().Name() == "proto"
}
