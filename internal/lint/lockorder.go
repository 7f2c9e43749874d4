package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// Lock classes of the MDS metadata hierarchy, in acquisition order. The
// levels mirror DESIGN.md "Concurrency model": namespace → inode stripe →
// intent table → ns-intent table → file-delegation table → delegation →
// journal slot reservation.
const (
	lockNS         = 1 // meta.Store.ns (RWMutex)
	lockStripe     = 2 // meta.Store.stripes[i] (RWMutex), usually via Store.stripe(id)
	lockIntent     = 3 // meta.intentTable.mu (Mutex), taken under a stripe lock
	lockNSIntent   = 4 // meta.nsIntentTable.mu (Mutex), the cross-shard intent table
	lockFileDeleg  = 5 // meta.FileDelegs.mu (Mutex), the file-delegation holder table
	lockDelegation = 6 // meta.delegation.mu (Mutex)
	lockJournal    = 7 // meta.Journal.Append / Store.journalAppend (slot reservation)
)

var lockClassName = map[int]string{
	lockNS:         "namespace (Store.ns)",
	lockStripe:     "inode stripe (Store.stripes)",
	lockIntent:     "intent table (intentTable.mu)",
	lockNSIntent:   "ns-intent table (nsIntentTable.mu)",
	lockFileDeleg:  "file-delegation table (FileDelegs.mu)",
	lockDelegation: "delegation (delegation.mu)",
	lockJournal:    "journal reservation (Journal.Append)",
}

// LockOrder verifies the documented lock hierarchy of the metadata hot path.
// It walks every function, tracking acquisitions and releases of the
// tracked lock classes through straight-line control flow (branches are
// analyzed sequentially; a branch ending in return/panic does not leak its
// lock state into the fallthrough path), and reports:
//
//   - an acquisition of a class lower in the hierarchy than one already
//     held (inversion → potential deadlock);
//   - a blocking operation — channel send/receive, select without default,
//     or an RPC Call/CallRaw/Compound — while any tracked lock is held.
//
// Journal.Append is the hierarchy's bottom: it must be called with the
// ordering lock held (that is what makes replay order equal apply order) but
// is instantaneous — the durability wait it returns must run after unlock,
// which the closure-based journalAppend pattern guarantees.
var LockOrder = &Analyzer{
	Name: "lockorder",
	Doc:  "check the namespace → stripe → intent → file delegation → delegation → journal lock hierarchy and forbid blocking ops under tracked locks",
	Run:  runLockOrder,
}

// lockEvent is one acquisition/release/blocking event in source order.
type lockEvent struct {
	kind  int // eventAcquire, eventRelease, eventBlock, eventTouch
	class int
	pos   token.Pos
	desc  string
}

const (
	eventAcquire = iota
	eventRelease
	eventBlock   // blocking op: channel op, select, RPC call
	eventTouch   // instantaneous ordered acquire+release (Journal.Append)
	eventDiscard // control leaves the function (return/goto): state resets
)

func runLockOrder(pass *Pass) error {
	for _, file := range pass.Files {
		if pass.IsTestFile(file.Pos()) {
			continue
		}
		for _, decl := range file.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			lo := &lockOrderWalker{pass: pass, stripeVars: map[types.Object]bool{}}
			lo.block(nil, fn.Body.List)
		}
	}
	return nil
}

// lockOrderWalker carries per-function analysis state.
type lockOrderWalker struct {
	pass *Pass
	// stripeVars are local variables bound to a stripe lock, e.g.
	// `st := s.stripe(id)`.
	stripeVars map[types.Object]bool
}

// heldLock is one live acquisition.
type heldLock struct {
	class int
	pos   token.Pos
}

// block runs the statements through the lock-state machine and returns the
// fallthrough state. Nested function literals are analyzed with fresh state:
// a goroutine or deferred closure runs after (or concurrently with) the
// enclosing frame, so locks held at spawn time are not "held" inside it.
func (lo *lockOrderWalker) block(held []heldLock, stmts []ast.Stmt) []heldLock {
	for _, stmt := range stmts {
		held = lo.stmt(held, stmt)
	}
	return held
}

func (lo *lockOrderWalker) stmt(held []heldLock, stmt ast.Stmt) []heldLock {
	switch s := stmt.(type) {
	case *ast.ReturnStmt:
		held = lo.exprEvents(held, s)
		return nil // control leaves; deferred unlocks fire
	case *ast.BranchStmt:
		return nil // break/continue/goto: treat conservatively as a reset
	case *ast.DeferStmt:
		// A deferred Unlock keeps the lock held for the rest of the
		// function (fine for ordering — later acquisitions must still
		// respect the hierarchy). A deferred arbitrary closure runs after
		// the frame: analyze it with fresh state.
		if lit, ok := s.Call.Fun.(*ast.FuncLit); ok {
			lo.block(nil, lit.Body.List)
		}
		return held
	case *ast.GoStmt:
		if lit, ok := s.Call.Fun.(*ast.FuncLit); ok {
			lo.block(nil, lit.Body.List)
		}
		return held
	case *ast.BlockStmt:
		return lo.block(held, s.List)
	case *ast.IfStmt:
		if s.Init != nil {
			held = lo.stmt(held, s.Init)
		}
		held = lo.exprEvents(held, s.Cond)
		bodyOut := lo.block(cloneHeld(held), s.Body.List)
		var elseOut []heldLock
		hasElse := s.Else != nil
		if hasElse {
			elseOut = lo.stmt(cloneHeld(held), s.Else)
		}
		// Fallthrough state: prefer a branch that did not terminate.
		switch {
		case !terminates(s.Body) && bodyOut != nil:
			return bodyOut
		case hasElse && !terminatesStmt(s.Else):
			return elseOut
		case terminates(s.Body) && hasElse && terminatesStmt(s.Else):
			return nil // both sides leave
		default:
			return held // taken branch left the function; fall through unchanged
		}
	case *ast.ForStmt:
		if s.Init != nil {
			held = lo.stmt(held, s.Init)
		}
		if s.Cond != nil {
			held = lo.exprEvents(held, s.Cond)
		}
		out := lo.block(cloneHeld(held), s.Body.List)
		if terminates(s.Body) {
			return held
		}
		return out
	case *ast.RangeStmt:
		out := lo.block(cloneHeld(held), s.Body.List)
		if terminates(s.Body) {
			return held
		}
		return out
	case *ast.SwitchStmt, *ast.TypeSwitchStmt:
		var body *ast.BlockStmt
		if sw, ok := s.(*ast.SwitchStmt); ok {
			if sw.Tag != nil {
				held = lo.exprEvents(held, sw.Tag)
			}
			body = sw.Body
		} else {
			body = s.(*ast.TypeSwitchStmt).Body
		}
		for _, clause := range body.List {
			if cc, ok := clause.(*ast.CaseClause); ok {
				lo.block(cloneHeld(held), cc.Body)
			}
		}
		return held
	case *ast.SelectStmt:
		// A select with no default blocks.
		hasDefault := false
		for _, clause := range body(s.Body) {
			if cc, ok := clause.(*ast.CommClause); ok && cc.Comm == nil {
				hasDefault = true
			}
		}
		if !hasDefault {
			lo.reportBlocked(held, s.Pos(), "select without default")
		}
		for _, clause := range body(s.Body) {
			if cc, ok := clause.(*ast.CommClause); ok {
				lo.block(cloneHeld(held), cc.Body)
			}
		}
		return held
	case *ast.LabeledStmt:
		return lo.stmt(held, s.Stmt)
	default:
		return lo.exprEvents(held, stmt)
	}
}

func body(b *ast.BlockStmt) []ast.Stmt {
	if b == nil {
		return nil
	}
	return b.List
}

func cloneHeld(held []heldLock) []heldLock {
	return append([]heldLock(nil), held...)
}

// terminates reports whether a block's last statement leaves the function or
// loop (return, panic, break, continue, goto).
func terminates(b *ast.BlockStmt) bool {
	if b == nil || len(b.List) == 0 {
		return false
	}
	return terminatesStmt(b.List[len(b.List)-1])
}

func terminatesStmt(s ast.Stmt) bool {
	switch t := s.(type) {
	case *ast.ReturnStmt, *ast.BranchStmt:
		return true
	case *ast.ExprStmt:
		if call, ok := t.X.(*ast.CallExpr); ok {
			if id, ok := call.Fun.(*ast.Ident); ok && id.Name == "panic" {
				return true
			}
		}
	case *ast.BlockStmt:
		return terminates(t)
	case *ast.IfStmt:
		return terminates(t.Body) && t.Else != nil && terminatesStmt(t.Else)
	}
	return false
}

// exprEvents scans a statement or expression for lock events in source order
// and applies them to the state.
func (lo *lockOrderWalker) exprEvents(held []heldLock, n ast.Node) []heldLock {
	if n == nil {
		return held
	}
	var events []lockEvent
	ast.Inspect(n, func(node ast.Node) bool {
		switch e := node.(type) {
		case *ast.FuncLit:
			lo.block(nil, e.Body.List) // fresh state inside closures
			return false
		case *ast.AssignStmt:
			lo.recordStripeVars(e)
		case *ast.UnaryExpr:
			if e.Op == token.ARROW {
				events = append(events, lockEvent{kind: eventBlock, pos: e.Pos(), desc: "channel receive"})
			}
		case *ast.SendStmt:
			events = append(events, lockEvent{kind: eventBlock, pos: e.Pos(), desc: "channel send"})
		case *ast.CallExpr:
			if ev, ok := lo.classify(e); ok {
				events = append(events, ev)
			}
		}
		return true
	})
	for _, ev := range events {
		held = lo.apply(held, ev)
	}
	return held
}

// recordStripeVars tracks `st := s.stripe(id)` style bindings.
func (lo *lockOrderWalker) recordStripeVars(as *ast.AssignStmt) {
	if len(as.Lhs) != len(as.Rhs) {
		return
	}
	for i, rhs := range as.Rhs {
		call, ok := ast.Unparen(rhs).(*ast.CallExpr)
		if !ok || !lo.isStripeSource(call) {
			continue
		}
		if id, ok := as.Lhs[i].(*ast.Ident); ok {
			if obj := lo.pass.Info.Defs[id]; obj != nil {
				lo.stripeVars[obj] = true
			} else if obj := lo.pass.Info.Uses[id]; obj != nil {
				lo.stripeVars[obj] = true
			}
		}
	}
}

// isStripeSource reports whether call yields a stripe lock: a call to
// meta.Store.stripe.
func (lo *lockOrderWalker) isStripeSource(call *ast.CallExpr) bool {
	obj := calleeOf(lo.pass.Info, call)
	fn, ok := obj.(*types.Func)
	if !ok || fn.Name() != "stripe" {
		return false
	}
	return isNamedType(recvTypeOf(lo.pass.Info, call), "meta", "Store")
}

// classify maps a call expression to a lock event, if it is one.
func (lo *lockOrderWalker) classify(call *ast.CallExpr) (lockEvent, bool) {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return lockEvent{}, false
	}
	name := sel.Sel.Name
	info := lo.pass.Info

	switch name {
	case "Lock", "RLock", "Unlock", "RUnlock":
		class, ok := lo.lockClass(sel.X)
		if !ok {
			return lockEvent{}, false
		}
		kind := eventAcquire
		if name == "Unlock" || name == "RUnlock" {
			kind = eventRelease
		}
		return lockEvent{kind: kind, class: class, pos: call.Pos(), desc: name}, true

	case "Append":
		// meta.Journal.Append: the journal-reservation level.
		if isNamedType(recvTypeOf(info, call), "meta", "Journal") {
			return lockEvent{kind: eventTouch, class: lockJournal, pos: call.Pos(), desc: "Journal.Append"}, true
		}
	case "journalAppend":
		if isNamedType(recvTypeOf(info, call), "meta", "Store") {
			return lockEvent{kind: eventTouch, class: lockJournal, pos: call.Pos(), desc: "journalAppend"}, true
		}
	case "Call", "CallRaw", "Compound":
		// rpc.Client methods block on the network round-trip.
		if isNamedType(recvTypeOf(info, call), "rpc", "Client") {
			return lockEvent{kind: eventBlock, pos: call.Pos(), desc: "RPC " + name}, true
		}
	}
	return lockEvent{}, false
}

// lockClass resolves the receiver expression of a Lock/Unlock call to a
// tracked class.
func (lo *lockOrderWalker) lockClass(x ast.Expr) (int, bool) {
	x = ast.Unparen(x)
	info := lo.pass.Info
	switch e := x.(type) {
	case *ast.Ident:
		// Local variable bound from Store.stripe(id).
		if obj := info.Uses[e]; obj != nil && lo.stripeVars[obj] {
			return lockStripe, true
		}
	case *ast.SelectorExpr:
		recv, ok := info.Selections[e]
		if !ok {
			break
		}
		switch {
		case e.Sel.Name == "ns" && isNamedType(recv.Recv(), "meta", "Store"):
			return lockNS, true
		case e.Sel.Name == "mu" && isNamedType(recv.Recv(), "meta", "intentTable"):
			return lockIntent, true
		case e.Sel.Name == "mu" && isNamedType(recv.Recv(), "meta", "nsIntentTable"):
			return lockNSIntent, true
		case e.Sel.Name == "mu" && isNamedType(recv.Recv(), "meta", "FileDelegs"):
			return lockFileDeleg, true
		case e.Sel.Name == "mu" && isNamedType(recv.Recv(), "meta", "delegation"):
			return lockDelegation, true
		}
	case *ast.IndexExpr:
		// s.stripes[i].Lock()
		if sel, ok := ast.Unparen(e.X).(*ast.SelectorExpr); ok {
			if recv, ok := info.Selections[sel]; ok &&
				sel.Sel.Name == "stripes" && isNamedType(recv.Recv(), "meta", "Store") {
				return lockStripe, true
			}
		}
	case *ast.CallExpr:
		// s.stripe(id).Lock() without the intermediate variable.
		if lo.isStripeSource(e) {
			return lockStripe, true
		}
	}
	return 0, false
}

// apply advances the lock state by one event, reporting violations.
func (lo *lockOrderWalker) apply(held []heldLock, ev lockEvent) []heldLock {
	switch ev.kind {
	case eventAcquire, eventTouch:
		for _, h := range held {
			if h.class > ev.class {
				lo.pass.Reportf(ev.pos,
					"acquiring %s while holding %s inverts the lock hierarchy (namespace → stripe → intent → ns-intent → file delegation → delegation → journal)",
					lockClassName[ev.class], lockClassName[h.class])
				break
			}
		}
		if ev.kind == eventAcquire {
			return append(held, heldLock{class: ev.class, pos: ev.pos})
		}
		return held
	case eventRelease:
		for i := len(held) - 1; i >= 0; i-- {
			if held[i].class == ev.class {
				return append(held[:i:i], held[i+1:]...)
			}
		}
		return held
	case eventBlock:
		lo.reportBlocked(held, ev.pos, ev.desc)
		return held
	}
	return held
}

func (lo *lockOrderWalker) reportBlocked(held []heldLock, pos token.Pos, what string) {
	if len(held) == 0 {
		return
	}
	top := held[len(held)-1]
	lo.pass.Reportf(pos, "%s while holding %s: tracked locks must not be held across blocking operations",
		what, lockClassName[top.class])
}
