package client

import (
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"redbud/internal/alloc"
	"redbud/internal/blockdev"
	"redbud/internal/clock"
	"redbud/internal/fsapi"
	"redbud/internal/mds"
	"redbud/internal/meta"
	"redbud/internal/netsim"
	"redbud/internal/obs"
	"redbud/internal/proto"
	"redbud/internal/rpc"
	"redbud/internal/wire"
)

// The oracle of every test in this file is the contract of cached opens: an
// open served from a delegation returns exactly what the RPC open would have
// returned had the MDS processed it at some instant between call and return;
// when that cannot be guaranteed, the open goes to the MDS.

// delegCluster is one MDS on a manual clock that only the test advances —
// every lease and recall deadline is an exact instant — behind one opGate per
// client, so a test can count, hold, fail or lose one client's RPCs without
// touching the other's. Nothing costs modeled time.
type delegCluster struct {
	t     *testing.T
	clk   *clock.Manual
	data  *blockdev.Device
	store *meta.Store
	net   *netsim.Network
	hosts int
	// hello, when set, edits every client's OpHello on its way to the MDS
	// (a client of an older protocol version); helloReply edits the MDS's
	// answer on its way back (an MDS of an older protocol version).
	hello      func(*proto.HelloReq)
	helloReply func(*proto.HelloResp)
	// tracer, when set, is every later mount's span tracer.
	tracer *obs.Tracer
}

func newDelegCluster(t *testing.T) *delegCluster {
	t.Helper()
	clk := clock.NewManual()
	dc := &delegCluster{t: t, clk: clk}
	dc.data = blockdev.New(blockdev.Config{ID: 0, Size: gatedSpace, Model: blockdev.ZeroLatency(), Clock: clk})
	dc.store = meta.NewStore(meta.Config{AGs: alloc.NewUniformAGSet(0, gatedSpace, 4), Clock: clk})
	dc.net = netsim.NewNetwork(clk)
	srv := mds.New(mds.Config{Store: dc.store, Clock: clk, Daemons: 4})
	dc.net.AddHost("mds", netsim.Instant())
	lis, err := dc.net.Listen("mds")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(lis)
	t.Cleanup(func() {
		lis.Close()
		srv.Close()
		dc.data.Close()
	})
	return dc
}

// mount mounts a client behind a gate of its own. It can redial.
func (dc *delegCluster) mount(mode Mode) (*Client, *opGate) { return dc.mountWith(mode, nil) }

// mountWith is mount with an edited configuration.
func (dc *delegCluster) mountWith(mode Mode, edit func(*Config)) (*Client, *opGate) {
	dc.t.Helper()
	dc.hosts++
	host, gateHost := fmt.Sprintf("c%d", dc.hosts), fmt.Sprintf("gate%d", dc.hosts)
	for _, h := range []string{host, gateHost, gateHost + "-up"} {
		dc.net.AddHost(h, netsim.Instant())
	}
	upConn, err := dc.net.Dial(gateHost+"-up", "mds")
	if err != nil {
		dc.t.Fatal(err)
	}
	gate := newOpGate(rpc.NewClient(upConn, dc.clk))
	proxy := rpc.NewServer(rpc.ServerConfig{Daemons: 16, Clock: dc.clk, Handler: func(op uint16, body []byte) ([]byte, error) {
		if op == proto.OpHello && dc.hello != nil {
			var req proto.HelloReq
			if err := wire.Decode(body, &req); err != nil {
				return nil, err
			}
			dc.hello(&req)
			body = wire.Encode(&req)
		}
		reply, err := gate.handle(op, body)
		if op == proto.OpHello && err == nil && dc.helloReply != nil {
			var resp proto.HelloResp
			if err := wire.Decode(reply, &resp); err != nil {
				return nil, err
			}
			dc.helloReply(&resp)
			reply = wire.Encode(&resp)
		}
		return reply, err
	}})
	lis, err := dc.net.Listen(gateHost)
	if err != nil {
		dc.t.Fatal(err)
	}
	go proxy.Serve(lis)
	dial := func(int) (*rpc.Client, error) {
		conn, err := dc.net.Dial(host, gateHost)
		if err != nil {
			return nil, err
		}
		return rpc.NewClient(conn, dc.clk), nil
	}
	first, err := dial(0)
	if err != nil {
		dc.t.Fatal(err)
	}
	cfg := Config{
		Name: host, MDS: first, Redial: dial, Devices: map[uint32]BlockDevice{0: dc.data},
		Clock: dc.clk, Mode: mode, PoolInterval: time.Millisecond, Tracer: dc.tracer,
	}
	if edit != nil {
		edit(&cfg)
	}
	c := New(cfg)
	dc.t.Cleanup(func() {
		gate.releaseAll()
		c.Crash()
		lis.Close()
		proxy.Close()
		gate.upstream.Close()
	})
	return c, gate
}

// rpcs is the number of requests the gate has passed to the MDS.
func (g *opGate) rpcs() int {
	g.mu.Lock()
	defer g.mu.Unlock()
	n := 0
	for _, k := range g.forwarded {
		n += k
	}
	return n
}

// holdAll parks every request the client sends: it is unreachable.
func (g *opGate) holdAll() (release func()) {
	var rel []func()
	for _, op := range []uint16{proto.OpLookup, proto.OpCreate, proto.OpGetAttr, proto.OpDelegAck, proto.OpRemove, proto.OpCommit, proto.OpLayoutGet} {
		rel = append(rel, g.holdOp(op))
	}
	var once sync.Once
	return func() {
		once.Do(func() {
			for _, r := range rel {
				r()
			}
		})
	}
}

// drive fires whatever timers get armed until the test ends: a recall that
// meets a holder which is doing nothing then costs one lease of virtual time
// and no wall time.
func (dc *delegCluster) drive() {
	stop, done := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(done)
		for {
			select {
			case <-stop:
				return
			default:
			}
			if dc.clk.AdvanceToNext() {
				runtime.Gosched()
			} else {
				time.Sleep(50 * time.Microsecond)
			}
		}
	}()
	dc.t.Cleanup(func() {
		close(stop)
		<-done
	})
}

func (dc *delegCluster) recalls() meta.DelegStats { return dc.store.FileDelegs().Stats() }

// writeSynced creates path through c with n bytes and commits them.
func writeSynced(t *testing.T, c *Client, path string, n int) {
	t.Helper()
	f := mustCreate(t, c, path)
	mustWrite(t, f, pattern(n, 1), 0)
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
}

// openSize opens path and returns the handle's size.
func openSize(t *testing.T, c *Client, path string) int64 {
	t.Helper()
	f, err := c.Open(path)
	if err != nil {
		t.Fatalf("Open(%s): %v", path, err)
	}
	defer f.Close()
	return f.Size()
}

// background runs fn and reports its result.
func background(fn func() error) <-chan error {
	done := make(chan error, 1)
	go func() { done <- fn() }()
	return done
}

func notYet(t *testing.T, done <-chan error, why string) {
	t.Helper()
	select {
	case err := <-done:
		t.Fatalf("returned (%v) %s", err, why)
	case <-time.After(20 * time.Millisecond):
	}
}

func now(t *testing.T, done <-chan error, why string) error {
	t.Helper()
	select {
	case err := <-done:
		return err
	case <-time.After(10 * time.Second):
		t.Fatalf("did not return %s", why)
		return nil
	}
}

// TestDentryCacheAcrossClients holds the two probes of the parent's dentry
// cache, which trusted dcache[path] for ever and asked for the cached *id*:
// (a) remove-and-recreate by another client made every later Open and Stat
// fail with "not found: inode 2"; (b) rename-and-recreate made Open succeed
// on the wrong file. Both are two plain SyncCommit mounts, no delegation in
// sight: an open that is not served by a delegation validates the leaf with
// the one Lookup it costs.
func TestDentryCacheAcrossClients(t *testing.T) {
	tc := newCluster(t)
	a, b := tc.client(SyncCommit, 0), tc.client(SyncCommit, 0)
	defer a.Close()
	defer b.Close()

	writeFile(t, a, "/f", pattern(4096, 1))
	if err := b.Remove("/f"); err != nil {
		t.Fatal(err)
	}
	writeFile(t, b, "/f", pattern(8192, 2))
	if got := openSize(t, a, "/f"); got != 8192 {
		t.Fatalf("(a) Open after remove-and-recreate: size %d, want the new file's 8192", got)
	}
	if info, err := a.Stat("/f"); err != nil || info.Size != 8192 {
		t.Fatalf("(a) Stat after remove-and-recreate = %+v, %v", info, err)
	}

	writeFile(t, a, "/g", pattern(4096, 3))
	if err := b.Rename("/g", "/h"); err != nil {
		t.Fatal(err)
	}
	writeFile(t, b, "/g", pattern(8192, 4))
	if got := openSize(t, a, "/g"); got != 8192 {
		t.Fatalf("(b) Open after rename-and-recreate: size %d, want the new file's 8192 (4096 is the wrong file)", got)
	}
	if got := openSize(t, a, "/h"); got != 4096 {
		t.Fatalf("(b) the renamed file has size %d under its new name, want 4096", got)
	}

	// A stale directory prefix: not-found through a cached ancestor drops the
	// prefix and walks once more from the root.
	if err := a.Mkdir("/d"); err != nil {
		t.Fatal(err)
	}
	writeFile(t, a, "/d/x", pattern(4096, 5))
	if err := b.Remove("/d/x"); err != nil {
		t.Fatal(err)
	}
	if err := b.Remove("/d"); err != nil {
		t.Fatal(err)
	}
	if err := b.Mkdir("/d"); err != nil {
		t.Fatal(err)
	}
	writeFile(t, b, "/d/y", pattern(12288, 6))
	if ents, err := a.ReadDir("/d"); err != nil || len(ents) != 1 || ents[0].Name != "y" {
		t.Fatalf("ReadDir of a replaced directory = %+v, %v, want the new directory's y", ents, err)
	}
	if got := openSize(t, a, "/d/y"); got != 12288 {
		t.Fatalf("Open below a replaced directory: size %d, want 12288", got)
	}
	writeFile(t, a, "/d/z", pattern(4096, 7)) // and a create through the fresh prefix
	if _, err := a.Open("/d/x"); !errors.Is(err, fsapi.ErrNotExist) {
		t.Fatalf("Open of the removed file = %v, want ErrNotExist", err)
	}
}

// TestResolveWalksFromDeepestCachedAncestor: opening N fresh files below a
// directory the client has resolved costs N RPCs — one leaf Lookup each, no
// walk from the root, no GetAttr — where the parent paid 4 per file.
func TestResolveWalksFromDeepestCachedAncestor(t *testing.T) {
	dc := newDelegCluster(t)
	w, _ := dc.mount(SyncCommit)
	r, gate := dc.mount(SyncCommit)
	for _, dir := range []string{"/a", "/a/b", "/a/b/c"} {
		if err := w.Mkdir(dir); err != nil {
			t.Fatal(err)
		}
	}
	const n = 8
	for i := 0; i < n; i++ {
		writeSynced(t, w, fmt.Sprintf("/a/b/c/f%d", i), 4096)
	}
	if _, err := r.Stat("/a/b/c"); err != nil {
		t.Fatal(err)
	}
	before := gate.rpcs()
	for i := 0; i < n; i++ {
		if got := openSize(t, r, fmt.Sprintf("/a/b/c/f%d", i)); got != 4096 {
			t.Fatalf("f%d: size %d", i, got)
		}
	}
	if got := gate.rpcs() - before; got != n {
		t.Fatalf("%d opens below a resolved directory cost %d RPCs, want %d", n, got, n)
	}
	if got := gate.forwardedCount(proto.OpGetAttr); got != 0 {
		t.Fatalf("%d GetAttr RPCs, want none: the leaf Lookup carries the attributes", got)
	}
}

// TestOpenServedFromDelegation: the reply that created the file delegated it;
// from then on Open and Stat of it cost no RPC and say what the MDS would —
// through the client's own writes, appends and commits, which never recall
// it — and the client's own remove ends it without a recall.
func TestOpenServedFromDelegation(t *testing.T) {
	for _, mode := range []Mode{SyncCommit, DelayedCommit} {
		t.Run(mode.String(), func(t *testing.T) {
			dc := newDelegCluster(t)
			c, gate := dc.mount(mode)
			writeSynced(t, c, "/f", 4096)
			if got := c.delegs.Load(); got != 1 {
				t.Fatalf("%d delegations after the create, want 1", got)
			}
			before, hits := gate.rpcs(), c.st.openHits.Load()
			for i := 0; i < 50; i++ {
				if got := openSize(t, c, "/f"); got != 4096 {
					t.Fatalf("open %d: size %d", i, got)
				}
				info, err := c.Stat("/f")
				if err != nil || info.Size != 4096 || info.Dir || info.Name != "f" {
					t.Fatalf("stat %d = %+v, %v", i, info, err)
				}
			}
			if got := gate.rpcs() - before; got != 0 {
				t.Fatalf("100 opens and stats of a delegated file cost %d RPCs, want 0", got)
			}
			if got := c.st.openHits.Load() - hits; got != 100 {
				t.Fatalf("%d hits counted, want 100", got)
			}

			// What the cache says is what the MDS says, mtime included.
			f, err := c.Open("/f")
			if err != nil {
				t.Fatal(err)
			}
			if _, err := f.Append(pattern(4096, 2)); err != nil {
				t.Fatal(err)
			}
			if err := f.Sync(); err != nil {
				t.Fatal(err)
			}
			f.Close()
			info, err := c.Stat("/f")
			if err != nil {
				t.Fatal(err)
			}
			a, err := dc.store.Lookup(meta.RootID, "f")
			if err != nil {
				t.Fatal(err)
			}
			if info.Size != a.Size || !info.MTime.Equal(a.MTime) || a.Size != 8192 {
				t.Fatalf("cached Stat = size %d mtime %v, the store has size %d mtime %v", info.Size, info.MTime, a.Size, a.MTime)
			}
			if err := c.Remove("/f"); err != nil {
				t.Fatal(err)
			}
			if _, err := c.Open("/f"); !errors.Is(err, fsapi.ErrNotExist) {
				t.Fatalf("Open after the client's own remove = %v", err)
			}
			if st := dc.recalls(); st.Recalls != 0 || st.Held != 0 {
				t.Fatalf("the client's own mutations recalled it, or left an entry: %+v", st)
			}
			if got := c.delegs.Load(); got != 0 {
				t.Fatalf("%d delegations after the remove, want 0", got)
			}
		})
	}
}

// TestForeignMutationWaitsForTheHolder: B's Remove returns only after A has
// acknowledged the recall, and A's next Open is ErrNotExist; B's append+Sync
// likewise, and A's next Open sees the growth.
func TestForeignMutationWaitsForTheHolder(t *testing.T) {
	dc := newDelegCluster(t)
	a, gateA := dc.mount(SyncCommit)
	b, _ := dc.mount(SyncCommit)
	writeSynced(t, a, "/f", 4096)
	writeSynced(t, a, "/g", 4096)

	// Remove. A's acknowledgement is held at its gate: B must wait for it.
	releaseAck := gateA.holdOp(proto.OpDelegAck)
	remove := background(func() error { return b.Remove("/f") })
	notYet(t, remove, "while A holds /f and has heard nothing")
	if got := openSize(t, a, "/f"); got != 4096 {
		t.Fatalf("A's cached open during the recall: size %d", got) // still the truth: the remove has not happened
	}
	// Any attribute-bearing reply tells A; here, a Stat of the root.
	stat := background(func() error { _, err := a.Stat("/"); return err })
	gateA.waitArrival(t, proto.OpDelegAck)
	notYet(t, remove, "before A's acknowledgement reached the MDS")
	before := gateA.rpcs()
	openErr := background(func() error { _, err := a.Open("/f"); return err })
	releaseAck()
	if err := now(t, remove, "after A acknowledged"); err != nil {
		t.Fatalf("B's Remove: %v", err)
	}
	if err := now(t, stat, "after its acknowledgement went through"); err != nil {
		t.Fatal(err)
	}
	// The open that raced the acknowledgement asked the MDS: A had dropped
	// the delegation before it acknowledged.
	if err := now(t, openErr, ""); err != nil && !errors.Is(err, fsapi.ErrNotExist) {
		t.Fatalf("A's Open racing the remove = %v", err)
	}
	if gateA.rpcs() == before {
		t.Fatal("A served an open from a delegation it had been told to drop")
	}
	if _, err := a.Open("/f"); !errors.Is(err, fsapi.ErrNotExist) {
		t.Fatalf("A's Open after B's Remove = %v, want ErrNotExist", err)
	}

	// Append + Sync.
	appendDone := background(func() error {
		f, err := b.Open("/g")
		if err != nil {
			return err
		}
		defer f.Close()
		if _, err := f.Append(pattern(4096, 2)); err != nil {
			return err
		}
		return f.Sync()
	})
	notYet(t, appendDone, "while A holds /g")
	if _, err := a.Stat("/"); err != nil {
		t.Fatal(err)
	}
	if err := now(t, appendDone, "after A acknowledged"); err != nil {
		t.Fatalf("B's append+Sync: %v", err)
	}
	if got := openSize(t, a, "/g"); got != 8192 {
		t.Fatalf("A's Open after B's append: size %d, want 8192", got)
	}
	// Recalled once, never granted again: from here both clients ask, and
	// nobody waits.
	if got := a.delegs.Load(); got != 0 {
		t.Fatalf("A holds %d delegations, want 0", got)
	}
	if st := dc.recalls(); st.Recalls != 2 || st.Lapses != 0 || st.Held != 0 {
		t.Fatalf("stats = %+v, want 2 recalls, both acknowledged", st)
	}
}

// TestUnreachableHolderCostsOneLease: with every RPC of A held at its gate,
// B's Remove completes exactly when A's lease runs out on the manual clock —
// not a nanosecond before — and A serves no open from its cache at or after
// that instant.
func TestUnreachableHolderCostsOneLease(t *testing.T) {
	dc := newDelegCluster(t)
	a, gateA := dc.mount(SyncCommit)
	b, _ := dc.mount(SyncCommit)
	writeSynced(t, a, "/f", 4096) // A's lease now runs until Epoch + DelegTerm
	release := gateA.holdAll()
	defer release()

	dc.clk.Advance(meta.DelegTerm / 2)
	remove := background(func() error { return b.Remove("/f") })
	eventually(t, "the recall wait to be on the clock", func() bool { return dc.clk.Waiters() > 0 })
	dc.clk.Advance(meta.DelegTerm/2 - time.Nanosecond)
	notYet(t, remove, "one nanosecond before A's lease ran out")
	before := gateA.rpcs()
	if got := openSize(t, a, "/f"); got != 4096 || gateA.rpcs() != before {
		t.Fatalf("A's open inside its lease: size %d, %d RPCs; want the cached 4096 and none", got, gateA.rpcs()-before)
	}

	dc.clk.Advance(time.Nanosecond)
	if err := now(t, remove, "at the instant A's lease ran out"); err != nil {
		t.Fatalf("B's Remove: %v", err)
	}
	open := background(func() error { _, err := a.Open("/f"); return err })
	gateA.waitArrival(t, proto.OpLookup) // it asked: the request is parked at the gate
	notYet(t, open, "although A's lease is over")
	release()
	if err := now(t, open, "once A was reachable again"); !errors.Is(err, fsapi.ErrNotExist) {
		t.Fatalf("A's Open after the lapse = %v, want ErrNotExist", err)
	}
	if st := dc.recalls(); st.Recalls != 1 || st.Lapses != 1 {
		t.Fatalf("stats = %+v, want the one recall ended by lapse", st)
	}
}

// TestLostRecallReplyIsRepeated: the reply that carried the recall never
// reaches A. It renewed nothing — A's lease is what it was — and the next
// reply carries the recall again.
func TestLostRecallReplyIsRepeated(t *testing.T) {
	dc := newDelegCluster(t)
	a, gateA := dc.mount(SyncCommit)
	b, _ := dc.mount(SyncCommit)
	writeSynced(t, a, "/f", 4096)
	lease := a.links[0].lease

	dc.clk.Advance(meta.DelegTerm / 4)
	remove := background(func() error { return b.Remove("/f") })
	notYet(t, remove, "while A holds /f")
	gateA.loseReplies(proto.OpGetAttr, 1)
	if _, err := a.Stat("/"); err == nil {
		t.Fatal("the Stat whose reply was lost succeeded")
	}
	if got := a.links[0].lease; !got.Equal(lease) {
		t.Fatalf("a reply that never arrived moved the lease from %v to %v", lease, got)
	}
	if got := openSize(t, a, "/f"); got != 4096 {
		t.Fatalf("A's cached open: size %d", got)
	}
	notYet(t, remove, "although A never saw the recall")

	if _, err := a.Stat("/"); err != nil { // this reply carries it again
		t.Fatal(err)
	}
	if err := now(t, remove, "after the repeated recall was acknowledged"); err != nil {
		t.Fatalf("B's Remove: %v", err)
	}
	if got := a.links[0].lease; !got.After(lease) {
		t.Fatal("the reply that did arrive renewed nothing")
	}
	if _, err := a.Open("/f"); !errors.Is(err, fsapi.ErrNotExist) {
		t.Fatalf("A's Open = %v, want ErrNotExist", err)
	}
}

// TestGrantOlderThanAnAcknowledgedRecallIsIgnored: a reply that grants X is
// overtaken by one that recalls X. By the time the grant is processed the
// client has acknowledged the recall and the file is gone; the sequence
// number on the late reply says it is older than that, and it is not trusted.
func TestGrantOlderThanAnAcknowledgedRecallIsIgnored(t *testing.T) {
	dc := newDelegCluster(t)
	a, gateA := dc.mount(SyncCommit)
	b, _ := dc.mount(SyncCommit)
	if _, err := dc.store.Create(meta.RootID, "x", meta.TypeFile); err != nil { // nobody's
		t.Fatal(err)
	}
	releaseLookup := gateA.holdReplies(proto.OpLookup)
	stat := background(func() error { _, err := a.Stat("/x"); return err }) // granted at the MDS, reply parked
	gateA.waitArrival(t, proto.OpLookup)
	remove := background(func() error { return b.Remove("/x") })
	notYet(t, remove, "while the MDS believes A holds /x")
	if _, err := a.Stat("/"); err != nil { // recall of an inode A has never heard of: acknowledged
		t.Fatal(err)
	}
	if err := now(t, remove, "after A acknowledged"); err != nil {
		t.Fatal(err)
	}
	releaseLookup()
	if err := now(t, stat, "once its reply was let through"); err != nil {
		t.Fatal(err) // what it says was true when the MDS said it
	}
	if got := a.delegs.Load(); got != 0 {
		t.Fatalf("A trusts a grant older than a recall it acknowledged (%d delegations)", got)
	}
	if _, err := a.Open("/x"); !errors.Is(err, fsapi.ErrNotExist) {
		t.Fatalf("A's Open of the removed file = %v, want ErrNotExist", err)
	}
}

// TestDirectoryRenameRecallsEverything: a foreign rename of a directory makes
// every holder drop everything it has on the shard, dentry cache included,
// before it is applied.
func TestDirectoryRenameRecallsEverything(t *testing.T) {
	dc := newDelegCluster(t)
	a, gateA := dc.mount(SyncCommit)
	b, _ := dc.mount(SyncCommit)
	if err := a.Mkdir("/d"); err != nil {
		t.Fatal(err)
	}
	writeSynced(t, a, "/d/f", 4096)
	writeSynced(t, a, "/top", 4096)
	rename := background(func() error { return b.Rename("/d", "/e") })
	notYet(t, rename, "while A holds files")
	if _, err := a.Stat("/"); err != nil {
		t.Fatal(err)
	}
	if err := now(t, rename, "after A acknowledged"); err != nil {
		t.Fatal(err)
	}
	if got := a.delegs.Load(); got != 0 {
		t.Fatalf("A kept %d delegations through a directory rename", got)
	}
	if _, err := a.Open("/d/f"); !errors.Is(err, fsapi.ErrNotExist) {
		t.Fatalf("A's Open below the old name = %v, want ErrNotExist", err)
	}
	before := gateA.rpcs()
	if got := openSize(t, a, "/e/f"); got != 4096 {
		t.Fatalf("size below the new name: %d", got)
	}
	if gateA.rpcs() == before {
		t.Fatal("A answered from a cache the rename should have emptied")
	}
	// A file recalled with everything else is never granted again; one
	// created afterwards is.
	openSize(t, a, "/top")
	writeSynced(t, a, "/fresh", 4096)
	if got := a.delegs.Load(); got != 1 {
		t.Fatalf("A holds %d delegations, want only the file created after the rename", got)
	}
}

// TestOlderPeerNeverCaches: a client never caches across a protocol skew.
// An MDS that answers hello with v4 is unusable: the client kills the link,
// and nothing more reaches that MDS. A client whose hello the MDS refuses
// (it offered v4) keeps the link but names no delegation owner on it, so it
// is never granted, never serves an open from memory, and stays correct.
func TestOlderPeerNeverCaches(t *testing.T) {
	t.Run("v4 MDS", func(t *testing.T) {
		dc := newDelegCluster(t)
		dc.helloReply = func(resp *proto.HelloResp) { resp.ProtoVersion = proto.ProtoV5 - 1 }
		a, gateA := dc.mount(SyncCommit)
		dc.helloReply = nil
		b, _ := dc.mount(SyncCommit)
		if err := a.links[0].dead(); err == nil || !strings.Contains(err.Error(), "protocol v4") {
			t.Fatalf("link after a v4 hello reply: fatal = %v, want the protocol mismatch", err)
		}
		writeSynced(t, b, "/f", 4096)
		before := gateA.rpcs()
		if _, err := a.Create("/g"); err == nil {
			t.Fatal("create over a killed link succeeded")
		}
		if _, err := a.Stat("/f"); err == nil {
			t.Fatal("stat over a killed link succeeded")
		}
		if got := gateA.rpcs() - before; got != 0 {
			t.Fatalf("%d requests reached the MDS over a killed link", got)
		}
		if a.delegs.Load() != 0 || a.st.openHits.Load() != 0 {
			t.Fatalf("a killed link cached: %d delegations, %d hits", a.delegs.Load(), a.st.openHits.Load())
		}
	})
	t.Run("v4 client", func(t *testing.T) {
		dc := newDelegCluster(t)
		dc.hello = func(req *proto.HelloReq) { req.ProtoVersion = proto.ProtoV5 - 1 }
		a, gateA := dc.mount(SyncCommit)
		b, _ := dc.mount(SyncCommit)
		if a.links[0].dead() != nil || a.links[0].helloed.Load() {
			t.Fatalf("refused hello: link dead = %v, helloed = %v; want alive without a hello", a.links[0].dead(), a.links[0].helloed.Load())
		}
		writeSynced(t, a, "/f", 4096)
		before := gateA.rpcs()
		for i := 0; i < 5; i++ {
			openSize(t, a, "/f")
		}
		if got := gateA.rpcs() - before; got != 5 {
			t.Fatalf("5 opens cost %d RPCs, want one each", got)
		}
		if a.delegs.Load() != 0 || a.st.openHits.Load() != 0 {
			t.Fatalf("a client without a hello cached: %d delegations, %d hits", a.delegs.Load(), a.st.openHits.Load())
		}
		if st := dc.recalls(); st.Grants != 0 {
			t.Fatalf("the MDS granted to a client without a hello: %+v", st)
		}
		if err := b.Remove("/f"); err != nil {
			t.Fatal(err)
		}
		writeSynced(t, b, "/f", 8192)
		if got := openSize(t, a, "/f"); got != 8192 {
			t.Fatalf("size %d after another client replaced the file, want 8192", got)
		}
	})
}

// TestSessionEndDropsDelegations: a redial, a Close and a Crash each leave the
// client holding nothing, and neither leaks a goroutine.
func TestSessionEndDropsDelegations(t *testing.T) {
	dc := newDelegCluster(t)
	a, gateA := dc.mount(DelayedCommit)
	b, _ := dc.mount(SyncCommit)
	c, _ := dc.mount(DelayedCommit)
	d, _ := dc.mount(DelayedCommit)
	mounted := runtime.NumGoroutine() // idle mounts: what follows must add nothing that outlives them
	for i, cl := range []*Client{a, c, d} {
		writeSynced(t, cl, fmt.Sprintf("/f%d", i), 4096)
		if cl.delegs.Load() != 1 {
			t.Fatalf("client %d holds %d delegations, want 1", i, cl.delegs.Load())
		}
	}
	writeSynced(t, b, "/other", 4096)

	// Redial: A's connection dies; its next wire call reconnects (after a
	// backoff sleep on the clock).
	conn, _ := a.links[0].conn()
	conn.Close()
	stat := background(func() error { _, err := a.Stat("/other"); return err })
	for done := false; !done; {
		select {
		case err := <-stat:
			if err != nil {
				t.Fatal(err)
			}
			done = true
		default:
			dc.clk.AdvanceToNext()
			runtime.Gosched()
		}
	}
	rpcs := gateA.rpcs()
	if got := openSize(t, a, "/f0"); got != 4096 || gateA.rpcs() == rpcs {
		t.Fatal("A served an open from a delegation of the dead connection")
	}
	if a.delegs.Load() != 1 {
		t.Fatal("the holder was not granted again on the new connection")
	}

	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	d.Crash()
	if c.delegs.Load() != 0 || d.delegs.Load() != 0 {
		t.Fatalf("delegations after Close / Crash: %d / %d", c.delegs.Load(), d.delegs.Load())
	}
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > mounted {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines with two idle mounts, %d after their Close and Crash", mounted, runtime.NumGoroutine())
		}
		time.Sleep(time.Millisecond)
	}
}

// TestReadPathSpans: Open records one span tagged with how it found the
// attributes, ReadAt one root span with a child per leg it took, and the
// read-side analysis accounts for every nanosecond of every read.
func TestReadPathSpans(t *testing.T) {
	dc := newDelegCluster(t)
	dc.tracer = obs.NewTracer(0)
	w, _ := dc.mount(SyncCommit)
	r, _ := dc.mount(SyncCommit)
	writeSynced(t, w, "/f", 2*PageSize)
	dc.tracer.Reset()

	read := func(c *Client, path string) {
		t.Helper()
		f, err := c.Open(path)
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		buf := make([]byte, 2*PageSize)
		if n, err := f.ReadAt(buf, 0); err != nil || n != len(buf) {
			t.Fatalf("ReadAt = %d, %v", n, err)
		}
	}
	read(w, "/f") // the writer's own: delegated open, pages cached
	read(r, "/f") // another mount, cold: it asks, probes the layout, reads the device
	read(r, "/f") // the layout is known now; the pages still come from the device
	// The reader commits to the writer's file: the writer's next open asks
	// about a file it used to hold.
	appendDone := background(func() error {
		f, err := r.Open("/f")
		if err != nil {
			return err
		}
		defer f.Close()
		if _, err := f.Append(pattern(PageSize, 9)); err != nil {
			return err
		}
		return f.Sync()
	})
	notYet(t, appendDone, "while the writer holds /f")
	if _, err := w.Stat("/"); err != nil {
		t.Fatal(err)
	}
	if err := now(t, appendDone, "after the writer acknowledged"); err != nil {
		t.Fatal(err)
	}
	read(w, "/f")

	spans := dc.tracer.Spans()
	names := map[string]int{}
	for _, s := range spans {
		names[s.Name]++
	}
	for name, want := range map[string]int{
		obs.SpanOpenHit: 1, obs.SpanOpenMiss: 3, obs.SpanOpenRecalled: 1,
		obs.SpanAppRead: 4, obs.SpanReadLayout: 1, obs.SpanReadDevice: 2,
		obs.SpanReadBarrier: 2,
	} {
		if names[name] != want {
			t.Errorf("%d %q spans, want %d (all: %v)", names[name], name, want, names)
		}
	}
	b := obs.AnalyzeReads(spans)
	if b.Reads != 4 || b.OpenHit.Count != 1 || b.OpenMiss.Count != 3 || b.OpenRecalled.Count != 1 {
		t.Fatalf("breakdown: %d reads, opens %d/%d/%d", b.Reads, b.OpenHit.Count, b.OpenMiss.Count, b.OpenRecalled.Count)
	}
	// (Nothing takes time on this clock; the identity is what is checked.)
	for _, p := range b.PerRead {
		if sum := p.Cache + p.Layout + p.Barrier + p.Device; sum != p.E2E || p.Cache < 0 {
			t.Fatalf("read %d: legs sum to %v (cache %v), e2e %v", p.ID, sum, p.Cache, p.E2E)
		}
	}
	// Every leg hangs under the root of its own read.
	roots := map[uint64]bool{}
	for _, s := range spans {
		if s.Name == obs.SpanAppRead {
			roots[s.SpanID] = true
		}
	}
	for _, s := range spans {
		if strings.HasPrefix(s.Name, "read.") && s.Name != obs.SpanAppRead && (!roots[s.Parent] || s.TraceID != s.Parent) {
			t.Fatalf("leg %+v is not linked under a read.app root", s)
		}
	}
	if c := obs.Analyze(spans); c.Commits == 0 {
		t.Fatal("the commit-side analysis lost the append's commit among the read spans")
	}
}

// TestOwnMutationWithLostReplyEndsTheDelegation: the holder's own remove or
// rename whose reply never arrives may have happened all the same. The client
// must not go on opening the file from memory: it gave the delegation up
// before the request left, so the next open asks — and is told the truth, or
// granted again if the MDS had refused.
func TestOwnMutationWithLostReplyEndsTheDelegation(t *testing.T) {
	dc := newDelegCluster(t)
	c, gate := dc.mount(SyncCommit)
	writeSynced(t, c, "/f", 4096)
	writeSynced(t, c, "/g", 4096)
	writeSynced(t, c, "/kept", 4096)

	gate.loseReplies(proto.OpRemove, 1)
	if err := c.Remove("/f"); err == nil {
		t.Fatal("the remove whose reply was lost succeeded")
	}
	if _, err := c.Open("/f"); !errors.Is(err, fsapi.ErrNotExist) {
		t.Fatalf("Open after a remove that happened unseen = %v, want ErrNotExist", err)
	}
	gate.loseReplies(proto.OpRename, 1)
	if err := c.Rename("/g", "/h"); err == nil {
		t.Fatal("the rename whose reply was lost succeeded")
	}
	if _, err := c.Open("/g"); !errors.Is(err, fsapi.ErrNotExist) {
		t.Fatalf("Open under the old name after a rename that happened unseen = %v, want ErrNotExist", err)
	}
	if got := openSize(t, c, "/h"); got != 4096 {
		t.Fatalf("size under the new name: %d", got)
	}
	// A remove the MDS refuses costs one lookup, after which the file is
	// delegated again.
	gate.failOp(proto.OpRemove, errors.New("no"))
	if err := c.Remove("/kept"); err == nil {
		t.Fatal("the refused remove succeeded")
	}
	gate.failOp(proto.OpRemove, nil)
	openSize(t, c, "/kept")
	before := gate.rpcs()
	if got := openSize(t, c, "/kept"); got != 4096 || gate.rpcs() != before {
		t.Fatal("the file was not delegated again after a refused remove")
	}
}
