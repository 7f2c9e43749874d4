package client

import (
	"bytes"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
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

// opGate is an RPC proxy between a client and the MDS: it forwards every
// frame, and can hold the requests of one op (or only the write layout-gets)
// until released, fail them, and swap the server behind it (a restart as the
// client sees it). It records the write layout-gets that pass.
type opGate struct {
	mu         sync.Mutex
	upstream   *rpc.Client
	hold       map[uint16]chan struct{}
	holdWrites chan struct{} // write layout-gets parked, reads' layout probes pass
	fail       map[uint16]error
	lose       map[uint16]int           // replies of an op still to be lost on the way back
	holdReply  map[uint16]chan struct{} // replies of an op parked on the way back
	layoutGets []proto.LayoutGetReq
	forwarded  map[uint16]int // requests answered by the upstream, per op
	// arrived gets the op of every request that reached a held gate. The
	// buffer only keeps the proxy's daemons from blocking on a test that
	// does not listen.
	arrived chan uint16
}

func (g *opGate) handle(op uint16, body []byte) ([]byte, error) {
	g.mu.Lock()
	hold, ferr, up := g.hold[op], g.fail[op], g.upstream
	if op == proto.OpLayoutGet {
		var req proto.LayoutGetReq
		if err := wire.Decode(body, &req); err == nil && req.Flags.Has(meta.LayoutWrite) {
			g.layoutGets = append(g.layoutGets, req)
			if hold == nil {
				hold = g.holdWrites
			}
		}
	}
	g.mu.Unlock()
	if hold != nil {
		g.arrived <- op
		<-hold
		g.mu.Lock()
		ferr, up = g.fail[op], g.upstream
		g.mu.Unlock()
	}
	if ferr != nil {
		return nil, ferr
	}
	resp, err := up.CallRaw(op, body)
	g.mu.Lock()
	g.forwarded[op]++
	back := g.holdReply[op]
	g.mu.Unlock()
	if back != nil {
		g.arrived <- op
		<-back
	}
	g.mu.Lock()
	if g.lose[op] > 0 {
		g.lose[op]--
		resp, err = nil, errReplyLost
	}
	g.mu.Unlock()
	return resp, err
}

// errReplyLost is what the client gets for a request the upstream executed
// and whose reply the gate threw away.
var errReplyLost = errors.New("gate: reply lost")

// newOpGate returns a gate in front of upstream.
func newOpGate(upstream *rpc.Client) *opGate {
	return &opGate{
		upstream:  upstream,
		hold:      make(map[uint16]chan struct{}),
		fail:      make(map[uint16]error),
		lose:      make(map[uint16]int),
		holdReply: make(map[uint16]chan struct{}),
		forwarded: make(map[uint16]int),
		arrived:   make(chan uint16, 64),
	}
}

// holdReplies parks the replies of op on their way back — the upstream has
// executed the request — until the returned function is called.
func (g *opGate) holdReplies(op uint16) (release func()) {
	ch := make(chan struct{})
	g.mu.Lock()
	g.holdReply[op] = ch
	g.mu.Unlock()
	return func() {
		g.mu.Lock()
		delete(g.holdReply, op)
		g.mu.Unlock()
		close(ch)
	}
}

// loseReplies makes the gate throw away the next n replies of op.
func (g *opGate) loseReplies(op uint16, n int) {
	g.mu.Lock()
	g.lose[op] = n
	g.mu.Unlock()
}

// passOne lets exactly one request parked at op's held gate through.
func (g *opGate) passOne(op uint16) {
	g.mu.Lock()
	ch := g.hold[op]
	g.mu.Unlock()
	ch <- struct{}{}
}

func (g *opGate) forwardedCount(op uint16) int {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.forwarded[op]
}

// holdOp makes requests of op wait at the gate until the returned function
// is called.
func (g *opGate) holdOp(op uint16) (release func()) {
	ch := make(chan struct{})
	g.mu.Lock()
	g.hold[op] = ch
	g.mu.Unlock()
	return func() {
		g.mu.Lock()
		if g.hold[op] == ch {
			delete(g.hold, op)
		}
		g.mu.Unlock()
		close(ch)
	}
}

// holdWriteLayouts makes layout-gets flagged meta.LayoutWrite wait at the gate
// until the returned function is called; a read's layout probe goes through.
func (g *opGate) holdWriteLayouts() (release func()) {
	ch := make(chan struct{})
	g.mu.Lock()
	g.holdWrites = ch
	g.mu.Unlock()
	return func() {
		g.mu.Lock()
		if g.holdWrites == ch {
			g.holdWrites = nil
		}
		g.mu.Unlock()
		close(ch)
	}
}

func (g *opGate) releaseAll() {
	g.mu.Lock()
	defer g.mu.Unlock()
	for op, ch := range g.hold {
		delete(g.hold, op)
		close(ch)
	}
	if g.holdWrites != nil {
		close(g.holdWrites)
		g.holdWrites = nil
	}
	for op, ch := range g.holdReply {
		delete(g.holdReply, op)
		close(ch)
	}
}

func (g *opGate) failOp(op uint16, err error) {
	g.mu.Lock()
	if err == nil {
		delete(g.fail, op)
	} else {
		g.fail[op] = err
	}
	g.mu.Unlock()
}

func (g *opGate) writeLayoutGets() []proto.LayoutGetReq {
	g.mu.Lock()
	defer g.mu.Unlock()
	return append([]proto.LayoutGetReq(nil), g.layoutGets...)
}

// waitArrival blocks until a request of op is parked at a held gate.
func (g *opGate) waitArrival(t *testing.T, op uint16) {
	t.Helper()
	select {
	case got := <-g.arrived:
		if got != op {
			t.Fatalf("op %d reached the gate, want %d", got, op)
		}
	case <-time.After(10 * time.Second):
		t.Fatalf("no request of op %d reached the gate", op)
	}
}

// gatedCluster is testCluster on a manual clock with an opGate in front of
// the MDS. Nothing in it costs modeled time (zero-latency device, instant
// links, no op cost); a driver goroutine fires whatever timers get armed.
type gatedCluster struct {
	t     *testing.T
	clk   *clock.Manual
	data  *blockdev.Device
	ags   *alloc.AGSet
	store *meta.Store
	net   *netsim.Network
	gate  *opGate
	hosts int

	vmu        sync.Mutex
	violations []string
}

const gatedSpace = 1 << 30

func newGatedCluster(t *testing.T) *gatedCluster {
	t.Helper()
	clk := clock.NewManual()
	stop := make(chan struct{})
	var drv sync.WaitGroup
	drv.Add(1)
	go func() {
		defer drv.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if clk.AdvanceToNext() {
				runtime.Gosched()
			} else {
				time.Sleep(50 * time.Microsecond)
			}
		}
	}()

	gc := &gatedCluster{t: t, clk: clk}
	gc.data = blockdev.New(blockdev.Config{ID: 0, Size: gatedSpace, Model: blockdev.ZeroLatency(), Clock: clk})
	gc.ags = alloc.NewUniformAGSet(0, gatedSpace, 4)
	gc.store = meta.NewStore(meta.Config{AGs: gc.ags, Clock: clk})
	gc.net = netsim.NewNetwork(clk)

	gc.gate = newOpGate(gc.startMDS("mds", 1))
	proxy := rpc.NewServer(rpc.ServerConfig{Handler: gc.gate.handle, Daemons: 16, Clock: clk})
	gc.net.AddHost("gate", netsim.Instant())
	lis, err := gc.net.Listen("gate")
	if err != nil {
		t.Fatal(err)
	}
	go proxy.Serve(lis)
	t.Cleanup(func() {
		gc.gate.releaseAll() // a failed test may leave requests parked
		lis.Close()
		proxy.Close()
		gc.data.Close()
		close(stop)
		drv.Wait()
	})
	return gc
}

// startMDS serves the cluster's store as a new MDS incarnation on host and
// returns a connection to it. The commit check is the ordered-write oracle.
func (gc *gatedCluster) startMDS(host string, incarnation uint64) *rpc.Client {
	gc.t.Helper()
	srv := mds.New(mds.Config{
		Store: gc.store, Clock: gc.clk, Daemons: 4, Incarnation: incarnation,
		CommitCheck: func(exts []meta.Extent) error {
			for _, e := range exts {
				if !gc.data.IsDurable(e.VolOff, e.Len) {
					msg := fmt.Sprintf("extent dev%d[%d+%d) committed before durable", e.Dev, e.VolOff, e.Len)
					gc.vmu.Lock()
					gc.violations = append(gc.violations, msg)
					gc.vmu.Unlock()
					return errors.New(msg)
				}
			}
			return nil
		},
	})
	gc.net.AddHost(host, netsim.Instant())
	lis, err := gc.net.Listen(host)
	if err != nil {
		gc.t.Fatal(err)
	}
	go srv.Serve(lis)
	gc.net.AddHost(host+"-gate", netsim.Instant())
	conn, err := gc.net.Dial(host+"-gate", host)
	if err != nil {
		gc.t.Fatal(err)
	}
	up := rpc.NewClient(conn, gc.clk)
	gc.t.Cleanup(func() {
		up.Close()
		lis.Close()
		srv.Close()
	})
	return up
}

// dial connects a new host to the gate.
func (gc *gatedCluster) dial(host string) *rpc.Client {
	conn, err := gc.net.Dial(host, "gate")
	if err != nil {
		gc.t.Fatal(err)
	}
	return rpc.NewClient(conn, gc.clk)
}

// mount mounts a client behind the gate; edit adjusts the configuration.
func (gc *gatedCluster) mount(mode Mode, edit func(host string, cfg *Config)) *Client {
	gc.t.Helper()
	gc.hosts++
	host := fmt.Sprintf("wb-%d", gc.hosts)
	gc.net.AddHost(host, netsim.Instant())
	cfg := Config{
		Name: host, MDS: gc.dial(host), Devices: map[uint32]BlockDevice{0: gc.data},
		Clock: gc.clk, Mode: mode, PoolInterval: time.Millisecond,
	}
	if edit != nil {
		edit(host, &cfg)
	}
	return New(cfg)
}

func (gc *gatedCluster) assertOrdered() {
	gc.t.Helper()
	gc.vmu.Lock()
	defer gc.vmu.Unlock()
	if len(gc.violations) != 0 {
		gc.t.Fatalf("ordered-write violations: %v", gc.violations)
	}
}

func (gc *gatedCluster) assertFsck() {
	gc.t.Helper()
	if r := gc.store.Fsck(gatedSpace); !r.OK() {
		gc.t.Fatalf("fsck: %s", r)
	}
}

// restartUnderHeldLayoutGet restarts the MDS while a layout-get of c is parked
// at the held gate: a new incarnation answers from now on, and the connection
// the request is parked on dies. resent says the client sends the request
// again in the new session (an inline allocation does; a write-behind batch
// belongs to the dead session and does not): the retry then parks beside the
// orphaned first request, and the two go through one after the other (the MDS
// does not serialize two allocations of one range that are in flight
// together).
func (gc *gatedCluster) restartUnderHeldLayoutGet(c *Client, release func(), resent bool) {
	gc.t.Helper()
	up := gc.startMDS("mds-2", 2)
	gc.gate.mu.Lock()
	gc.gate.upstream = up
	gc.gate.mu.Unlock()
	old, _ := c.links[0].conn()
	old.Close()
	if resent {
		gc.gate.waitArrival(gc.t, proto.OpLayoutGet)
	}
	done := gc.gate.forwardedCount(proto.OpLayoutGet)
	gc.gate.passOne(proto.OpLayoutGet)
	eventually(gc.t, "the first parked layout-get to be answered", func() bool {
		return gc.gate.forwardedCount(proto.OpLayoutGet) == done+1
	})
	release()
}

// eventually polls cond until it holds.
func eventually(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(100 * time.Microsecond)
	}
}

// returns fails the test unless fn returns within the timeout.
func returns(t *testing.T, what string, fn func()) {
	t.Helper()
	done := make(chan struct{})
	go func() {
		defer close(done)
		fn()
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatalf("%s did not return", what)
	}
}

func mustCreate(t *testing.T, c *Client, path string) fsapi.File {
	t.Helper()
	f, err := c.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

func mustWrite(t *testing.T, f fsapi.File, p []byte, off int64) {
	t.Helper()
	if n, err := f.WriteAt(p, off); err != nil || n != len(p) {
		t.Fatalf("WriteAt(%d bytes at %d) = %d, %v", len(p), off, n, err)
	}
}

// TestWriteBehindWritesCostNoRPC: with the write-back routine's layout-get held
// at the gate, eight 4 KiB writes return without a single RPC; the flush after
// the held one then carries the seven that came behind it in one layout-get.
func TestWriteBehindWritesCostNoRPC(t *testing.T) {
	gc := newGatedCluster(t)
	c := gc.mount(DelayedCommit, nil)
	f := mustCreate(t, c, "/f")
	release := gc.gate.holdWriteLayouts()
	data := pattern(8*PageSize, 3)
	before := c.Stats()
	mustWrite(t, f, data[:PageSize], 0)
	gc.gate.waitArrival(t, proto.OpLayoutGet)
	for i := 1; i < 8; i++ {
		mustWrite(t, f, data[i*PageSize:(i+1)*PageSize], int64(i*PageSize))
	}
	if got := c.Stats().RPCs; got != before.RPCs {
		t.Fatalf("eight deferred writes cost %d RPCs, want 0", got-before.RPCs)
	}
	if got := c.dirtyBytes(); got != int64(len(data)) {
		t.Fatalf("dirty bytes = %d, want %d", got, len(data))
	}
	release()
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}
	lgs := gc.gate.writeLayoutGets()
	if len(lgs) != 2 || lgs[0].Off != 0 || lgs[0].Len != PageSize || lgs[1].Off != PageSize || lgs[1].Len != 7*PageSize {
		t.Fatalf("layout-gets = %+v, want [0,%d) then [%d,%d)", lgs, PageSize, PageSize, len(data))
	}
	// The write-back layout-gets count in Stats().RPCs beside the commits, and
	// Sync leaves no commit of the file on the wire.
	after := c.Stats()
	if got, want := after.RPCs-before.RPCs, 2+after.CommitRPCs-before.CommitRPCs; got != want {
		t.Fatalf("RPCs = %d, want two layout-gets + %d commit frames", got, want-2)
	}
	if got := c.dirtyBytes(); got != 0 {
		t.Fatalf("dirty bytes after Sync = %d, want 0", got)
	}
	gc.assertOrdered()
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestWriteBehindSecondLayoutGetCarriesTheRest: while the first write's
// layout-get is held at the server, seven more writes return; the second
// request covers all seven.
func TestWriteBehindSecondLayoutGetCarriesTheRest(t *testing.T) {
	gc := newGatedCluster(t)
	c := gc.mount(DelayedCommit, nil)
	f := mustCreate(t, c, "/f")
	release := gc.gate.holdOp(proto.OpLayoutGet)
	data := pattern(8*PageSize, 5)
	mustWrite(t, f, data[:PageSize], 0)
	gc.gate.waitArrival(t, proto.OpLayoutGet)
	before := c.Stats().RPCs
	for i := 1; i < 8; i++ {
		mustWrite(t, f, data[i*PageSize:(i+1)*PageSize], int64(i*PageSize))
	}
	if got := c.Stats().RPCs; got != before {
		t.Fatalf("writes behind a held layout-get cost %d RPCs, want 0", got-before)
	}
	release()
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}
	lgs := gc.gate.writeLayoutGets()
	if len(lgs) != 2 || lgs[1].Off != PageSize || lgs[1].Len != 7*PageSize {
		t.Fatalf("layout-gets = %+v, want [0,4096) then [4096,32768)", lgs)
	}
	gc.assertOrdered()

	// Every byte committed: another client sees the size and the data.
	other := gc.mount(SyncCommit, nil)
	defer other.Close()
	if got := readFile(t, other, "/f"); !bytes.Equal(got, data) {
		t.Fatalf("other client read %d bytes, mismatch with the %d written", len(got), len(data))
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestWriteBehindFlushesConcurrently: nothing but the dirty window bounds how
// many files a client flushes at once. Eight files with one deferred write
// each put eight write-back layout-gets on the wire together.
func TestWriteBehindFlushesConcurrently(t *testing.T) {
	gc := newGatedCluster(t)
	c := gc.mount(DelayedCommit, nil)
	reg := obs.NewRegistry()
	c.RegisterMetrics(reg)
	inflight := func() int64 {
		m, ok := reg.Snapshot().Get("redbud_client_writeback_inflight")
		if !ok {
			t.Fatal("redbud_client_writeback_inflight is not registered")
		}
		return m.Value
	}
	const files = 8
	release := gc.gate.holdWriteLayouts()
	for i := 0; i < files; i++ {
		f := mustCreate(t, c, fmt.Sprintf("/f%d", i))
		mustWrite(t, f, pattern(PageSize, byte(i)), 0)
		f.Close()
	}
	for i := 0; i < files; i++ {
		gc.gate.waitArrival(t, proto.OpLayoutGet)
	}
	if got := inflight(); got != files {
		t.Fatalf("redbud_client_writeback_inflight = %d with every flush held, want %d", got, files)
	}
	release()
	if err := c.Drain(); err != nil {
		t.Fatal(err)
	}
	if got := inflight(); got != 0 {
		t.Fatalf("redbud_client_writeback_inflight = %d after Drain, want 0", got)
	}
	gc.assertOrdered()
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestWriteBehindReadYourWrites: a deferred write to part of an uncached
// mid-file page is written through, not cached; a read of that page waits
// for the flush instead of fetching what the array held before it.
func TestWriteBehindReadYourWrites(t *testing.T) {
	gc := newGatedCluster(t)
	seedClient := gc.mount(SyncCommit, nil)
	old := pattern(4*PageSize, 7)
	writeFile(t, seedClient, "/f", old)
	seedClient.Close()

	c := gc.mount(DelayedCommit, nil)
	defer c.Close()
	fh, err := c.Open("/f")
	if err != nil {
		t.Fatal(err)
	}
	f := fh.(*File)
	// Only the write-back routine's layout-get is held at the gate: the read's
	// own layout probe must go through, so that what holds the read back is
	// the barrier. An append needs space, so it is deferred; the overwrite
	// queues behind it although its range is backed.
	release := gc.gate.holdWriteLayouts()
	if _, err := f.Append(pattern(PageSize, 9)); err != nil {
		t.Fatal(err)
	}
	patch := []byte("written behind")
	mustWrite(t, f, patch, PageSize+100)

	want := append([]byte(nil), old[PageSize:2*PageSize]...)
	copy(want[100:], patch)
	got := make([]byte, PageSize)
	done := make(chan error, 1)
	go func() {
		_, err := f.ReadAt(got, PageSize)
		done <- err
	}()
	select {
	case <-done:
		t.Fatal("read of an uncached page returned while a write to it was still deferred")
	case <-time.After(30 * time.Millisecond):
	}
	release()
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("read after a deferred partial-page write does not show the write")
	}
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}
	gc.assertOrdered()
}

// TestWriteBehindRemovedFile: deferred data of a file that is removed before
// its layout-get runs is dropped without an error, and no space leaks.
func TestWriteBehindRemovedFile(t *testing.T) {
	gc := newGatedCluster(t)
	c := gc.mount(DelayedCommit, nil)
	defer c.Close()
	other := gc.mount(SyncCommit, nil)
	defer other.Close()
	free := gc.ags.FreeBytes()

	// Removed by another client while the layout-get is still to come.
	f := mustCreate(t, c, "/gone")
	release := gc.gate.holdWriteLayouts()
	mustWrite(t, f, pattern(8*PageSize, 1), 0)
	gc.gate.waitArrival(t, proto.OpLayoutGet)
	if err := other.Remove("/gone"); err != nil {
		t.Fatalf("Remove by another client: %v", err)
	}
	release()
	returns(t, "Drain", func() {
		if err := c.Drain(); err != nil {
			t.Errorf("Drain after the file was removed: %v", err)
		}
	})
	if err := f.Close(); err != nil {
		t.Fatalf("Close after the file was removed: %v", err)
	}
	if got := c.dirtyBytes(); got != 0 {
		t.Fatalf("dirty bytes = %d after the data was dropped", got)
	}

	// Removed by the writer itself, straight after the writes.
	f = mustCreate(t, c, "/mine")
	mustWrite(t, f, pattern(8*PageSize, 2), 0)
	if err := c.Remove("/mine"); err != nil {
		t.Fatalf("Remove with deferred writes: %v", err)
	}
	f.Close()

	gc.assertFsck()
	if got := gc.ags.FreeBytes(); got != free {
		t.Fatalf("free space %d, want %d: a removed file's write-behind allocation leaked", got, free)
	}
	gc.assertOrdered()
}

// TestCompoundCommitOfRemovedFiles: two commits that share a compound frame,
// whose files another client removed meanwhile, each come back refused as
// fsapi.ErrNotExist, and the client drops them as benign: nothing is
// poisoned, and Drain, Sync and Close succeed.
func TestCompoundCommitOfRemovedFiles(t *testing.T) {
	gc := newGatedCluster(t)
	c := gc.mount(DelayedCommit, func(_ string, cfg *Config) {
		cfg.FixedCommitThreads, cfg.CompoundDegree = 1, 2
	})
	defer c.Close()
	other := gc.mount(SyncCommit, nil)
	defer other.Close()

	// The one commit daemon parks on a first file's commit, while the
	// commits of two more files queue behind it.
	release := gc.gate.holdOp(proto.OpCommit)
	mustWrite(t, mustCreate(t, c, "/first"), pattern(PageSize, 1), 0)
	gc.gate.waitArrival(t, proto.OpCommit)
	var files []fsapi.File
	for i, name := range []string{"/a", "/b"} {
		f := mustCreate(t, c, name)
		mustWrite(t, f, pattern(PageSize, byte(i+2)), 0)
		files = append(files, f)
	}
	eventually(t, "the written-behind data to be durable", func() bool { return c.dirtyBytes() == 0 })
	for _, name := range []string{"/a", "/b"} {
		if err := other.Remove(name); err != nil {
			t.Fatalf("Remove %s by another client: %v", name, err)
		}
	}
	release()
	eventually(t, "the queued commits to be answered", func() bool { return c.st.commitsSent.Load() == 3 && c.QueueLen() == 0 })
	if frames := c.st.commitRPCs.Load(); frames != 2 {
		t.Fatalf("3 commits in %d frames, want the two removed files' commits to share one", frames)
	}
	returns(t, "Drain", func() {
		if err := c.Drain(); err != nil {
			t.Errorf("Drain after the files were removed: %v", err)
		}
	})
	for _, f := range files {
		if err := f.Sync(); err != nil {
			t.Fatalf("Sync of a file removed under its commit: %v", err)
		}
		if err := f.Close(); err != nil {
			t.Fatalf("Close of a file removed under its commit: %v", err)
		}
	}
	gc.assertFsck()
	gc.assertOrdered()
}

// TestSyncWriteOfRemovedFile: a sync-mode write whose commit finds the file
// removed by another client meanwhile succeeds, its data dropped as the
// commit's would be.
func TestSyncWriteOfRemovedFile(t *testing.T) {
	gc := newGatedCluster(t)
	c := gc.mount(SyncCommit, nil)
	defer c.Close()
	other := gc.mount(SyncCommit, nil)
	defer other.Close()

	f := mustCreate(t, c, "/gone")
	release := gc.gate.holdOp(proto.OpCommit)
	done := make(chan error, 1)
	go func() {
		_, err := f.WriteAt(pattern(PageSize, 1), 0)
		done <- err
	}()
	gc.gate.waitArrival(t, proto.OpCommit)
	if err := other.Remove("/gone"); err != nil {
		t.Fatalf("Remove by another client: %v", err)
	}
	release()
	if err := <-done; err != nil {
		t.Fatalf("write whose commit found the file removed: %v", err)
	}
	if err := f.Close(); err != nil {
		t.Fatalf("Close of the removed file: %v", err)
	}
	gc.assertFsck()
	gc.assertOrdered()
}

// TestWriteBehindWindow: writers block when the dirty window is full, resume
// when it drains, never push it past the bound — and a single write larger
// than the whole window goes through.
func TestWriteBehindWindow(t *testing.T) {
	gc := newGatedCluster(t)
	c := gc.mount(DelayedCommit, nil)
	f := mustCreate(t, c, "/big")
	release := gc.gate.holdOp(proto.OpLayoutGet)

	const chunk = 1 << 20
	const chunks = writeBackWindow/chunk + 2
	buf := pattern(chunk, 4)
	var peak int64
	sample := func() {
		if d := c.dirtyBytes(); d > peak {
			peak = d
		}
	}
	written := make(chan int, chunks)
	go func() {
		for i := 0; i < chunks; i++ {
			if _, err := f.WriteAt(buf, int64(i)*chunk); err != nil {
				t.Errorf("chunk %d: %v", i, err)
			}
			written <- i
		}
	}()
	// Exactly a window's worth is admitted while nothing can become durable.
	for i := 0; i < writeBackWindow/chunk; i++ {
		<-written
		sample()
	}
	eventually(t, "a writer to stall on the full window", func() bool { return c.st.writeBackStalls.Load() == 1 })
	select {
	case i := <-written:
		t.Fatalf("chunk %d admitted past a full window", i)
	case <-time.After(20 * time.Millisecond):
	}
	if got := c.dirtyBytes(); got != writeBackWindow {
		t.Fatalf("dirty bytes with a stalled writer = %d, want %d", got, int64(writeBackWindow))
	}
	release()
	for i := writeBackWindow / chunk; i < chunks; i++ {
		select {
		case <-written:
			sample()
		case <-time.After(10 * time.Second):
			t.Fatal("stalled writer did not resume when the window drained")
		}
	}
	if peak > writeBackWindow {
		t.Fatalf("dirty bytes peaked at %d, window is %d", peak, int64(writeBackWindow))
	}
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}

	// One write larger than the window: admitted alone, no deadlock.
	huge := pattern(writeBackWindow+chunk, 6)
	returns(t, "a write larger than the window", func() {
		if _, err := f.WriteAt(huge, int64(chunks)*chunk); err != nil {
			t.Error(err)
		}
	})
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}
	if got := c.dirtyBytes(); got != 0 {
		t.Fatalf("dirty bytes after Sync = %d, want 0", got)
	}
	gc.assertOrdered()
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestCrashDropsWriteBehind: Crash with deferred data and a layout-get in
// flight returns, leaves no write-back routine behind and nothing dirty.
func TestCrashDropsWriteBehind(t *testing.T) {
	gc := newGatedCluster(t)
	c := gc.mount(DelayedCommit, nil)
	release := gc.gate.holdOp(proto.OpLayoutGet)
	defer release()
	f := mustCreate(t, c, "/doomed")
	g := mustCreate(t, c, "/doomed2")
	mustWrite(t, f, pattern(PageSize, 1), 0)
	gc.gate.waitArrival(t, proto.OpLayoutGet)
	mustWrite(t, f, pattern(PageSize, 2), PageSize) // on the list behind the held flush
	mustWrite(t, g, pattern(PageSize, 3), 0)
	returns(t, "Crash", c.Crash)
	// Crash waits for the write-back routines, so this is already true.
	c.mu.Lock()
	for _, fs := range c.files {
		fs.mu.Lock()
		if fs.flushing || len(fs.deferred) != 0 {
			t.Errorf("file %d still has write-behind state after Crash", fs.id)
		}
		fs.mu.Unlock()
	}
	c.mu.Unlock()
	if got := c.dirtyBytes(); got != 0 {
		t.Fatalf("dirty bytes after Crash = %d, want 0", got)
	}
}

// TestCommitFinishingWhileDeferredKeepsFileDirty is the regression test for
// the lost commit: a commit reply that arrives while an append is deferred
// (no extents yet) must not mark the file clean.
func TestCommitFinishingWhileDeferredKeepsFileDirty(t *testing.T) {
	gc := newGatedCluster(t)
	c := gc.mount(DelayedCommit, nil)
	f := mustCreate(t, c, "/mail")
	fs := f.(*File).fs
	first, second := pattern(PageSize, 1), pattern(PageSize, 2)

	releaseCommit := gc.gate.holdOp(proto.OpCommit)
	mustWrite(t, f, first, 0)
	gc.gate.waitArrival(t, proto.OpCommit) // first's commit is at the server
	releaseLayout := gc.gate.holdOp(proto.OpLayoutGet)
	if _, err := f.Append(second); err != nil {
		t.Fatal(err)
	}
	gc.gate.waitArrival(t, proto.OpLayoutGet) // second is deferred, no extents yet
	releaseCommit()
	eventually(t, "the first commit to finish", func() bool {
		fs.mu.Lock()
		defer fs.mu.Unlock()
		return fs.commitGen > 0
	})
	releaseLayout()
	if err := c.Drain(); err != nil {
		t.Fatal(err)
	}
	gc.assertOrdered()

	other := gc.mount(SyncCommit, nil)
	defer other.Close()
	if got, want := readFile(t, other, "/mail"), append(first, second...); !bytes.Equal(got, want) {
		t.Fatalf("committed file has %d bytes, want %d: the deferred append was never committed", len(got), len(want))
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestSyncWaitsForTheCommitInFlight: a Sync that finds the commit daemon's
// commit of the file on the wire waits for it instead of sending a second one
// beside it, and finds nothing left to send: write + Sync is one OpCommit.
func TestSyncWaitsForTheCommitInFlight(t *testing.T) {
	gc := newGatedCluster(t)
	c := gc.mount(DelayedCommit, nil)
	f := mustCreate(t, c, "/f")
	release := gc.gate.holdOp(proto.OpCommit)
	mustWrite(t, f, pattern(PageSize, 1), 0)
	gc.gate.waitArrival(t, proto.OpCommit) // the daemon's
	synced := background(f.Sync)
	notYet(t, synced, "while the commit in flight was held")
	select {
	case op := <-gc.gate.arrived:
		t.Fatalf("op %d reached the gate beside the commit in flight", op)
	default:
	}
	release()
	if err := now(t, synced, "once the commit in flight was answered"); err != nil {
		t.Fatal(err)
	}
	if got := gc.gate.forwardedCount(proto.OpCommit); got != 1 {
		t.Fatalf("write + Sync put %d commits on the wire, want 1", got)
	}
	if a, err := gc.store.Lookup(meta.RootID, "f"); err != nil || a.Size != PageSize {
		t.Fatalf("committed attr = %+v, %v; want size %d", a, err, PageSize)
	}
	gc.assertOrdered()
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestSyncBehindALostCommitReportsIt: the commit a Sync waits for dies with its
// MDS session. The Sync reports errSessionLost, as a commit of its own built
// beside that one would have, not nil for a write the recovered MDS may never
// have seen.
func TestSyncBehindALostCommitReportsIt(t *testing.T) {
	gc := newGatedCluster(t)
	c := gc.mount(DelayedCommit, func(host string, cfg *Config) {
		cfg.Redial = func(int) (*rpc.Client, error) { return gc.dial(host), nil }
		cfg.Retry = RetryPolicy{MaxAttempts: 4, BaseDelay: time.Millisecond, MaxDelay: 4 * time.Millisecond}
	})
	f := mustCreate(t, c, "/f")
	release := gc.gate.holdOp(proto.OpCommit)
	mustWrite(t, f, pattern(PageSize, 1), 0)
	gc.gate.waitArrival(t, proto.OpCommit) // the daemon's
	synced := background(f.Sync)
	notYet(t, synced, "while the commit in flight was held")

	up := gc.startMDS("mds-2", 2)
	gc.gate.mu.Lock()
	gc.gate.upstream = up
	gc.gate.mu.Unlock()
	old, _ := c.links[0].conn()
	old.Close()
	if err := now(t, synced, "once the commit in flight was lost"); !errors.Is(err, errSessionLost) {
		t.Fatalf("Sync behind a commit lost with its session = %v, want errSessionLost", err)
	}
	release() // the orphaned request of the dead connection
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestDaemonLeavesFileToCommitInFlight: a commit daemon that checks out a
// file whose commit is on the wire does not wait for it; the file goes back on
// the queue when that commit finishes, and what it left dirty is committed
// without a Sync.
func TestDaemonLeavesFileToCommitInFlight(t *testing.T) {
	gc := newGatedCluster(t)
	c := gc.mount(DelayedCommit, func(_ string, cfg *Config) { cfg.FixedCommitThreads = 2 })
	f := mustCreate(t, c, "/f")
	fs := f.(*File).fs
	release := gc.gate.holdOp(proto.OpCommit)
	mustWrite(t, f, pattern(PageSize, 1), 0)
	gc.gate.waitArrival(t, proto.OpCommit)
	if _, err := f.Append(pattern(PageSize, 2)); err != nil {
		t.Fatal(err)
	}
	eventually(t, "the second daemon to leave the file to the commit in flight", func() bool {
		fs.mu.Lock()
		defer fs.mu.Unlock()
		return fs.recommit
	})
	release()
	eventually(t, "the append to be committed", func() bool {
		a, err := gc.store.Lookup(meta.RootID, "f")
		return err == nil && a.Size == 2*PageSize
	})
	if err := c.Drain(); err != nil { // the last reply may still be on its way
		t.Fatal(err)
	}
	if got := gc.gate.forwardedCount(proto.OpCommit); got != 2 {
		t.Fatalf("%d commits on the wire, want 2", got)
	}
	gc.assertOrdered()
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestAppendRollsBackFailedReservation: an append whose allocation fails
// must not leave the file longer than its data.
func TestAppendRollsBackFailedReservation(t *testing.T) {
	gc := newGatedCluster(t)
	noSpace := errors.New("alloc: no space left")

	// Sync commit allocates inline: Append itself fails, size unchanged.
	c := gc.mount(SyncCommit, nil)
	f := mustCreate(t, c, "/s")
	mustWrite(t, f, pattern(PageSize, 1), 0)
	gc.gate.failOp(proto.OpLayoutGet, noSpace)
	if _, err := f.Append(pattern(PageSize, 2)); err == nil {
		t.Fatal("Append with a failing layout-get succeeded")
	}
	if got := f.Size(); got != PageSize {
		t.Fatalf("size after a failed append = %d, want %d", got, PageSize)
	}
	gc.gate.failOp(proto.OpLayoutGet, nil)
	if off, err := f.Append(pattern(PageSize, 3)); err != nil || off != PageSize {
		t.Fatalf("next Append = offset %d, %v; want %d", off, err, PageSize)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}

	// Delayed commit allocates behind: Append succeeds, the failure
	// surfaces at the next WriteAt, Sync and Close — and nothing past the
	// committed data is ever shipped.
	d := gc.mount(DelayedCommit, nil)
	g := mustCreate(t, d, "/d")
	mustWrite(t, g, pattern(PageSize, 1), 0)
	if err := g.Sync(); err != nil {
		t.Fatal(err)
	}
	gc.gate.failOp(proto.OpLayoutGet, noSpace)
	if _, err := g.Append(pattern(PageSize, 2)); err != nil {
		t.Fatalf("deferred Append = %v, want success", err)
	}
	if err := g.Sync(); err == nil {
		t.Fatal("Sync after a failed write-behind allocation succeeded")
	}
	if _, err := g.WriteAt(pattern(PageSize, 3), 0); err == nil {
		t.Fatal("WriteAt after a failed write-behind allocation succeeded")
	}
	if _, err := g.Append(pattern(PageSize, 3)); err == nil {
		t.Fatal("Append after a failed write-behind allocation succeeded")
	}
	if err := g.Close(); err == nil {
		t.Fatal("Close after a failed write-behind allocation succeeded")
	}
	gc.gate.failOp(proto.OpLayoutGet, nil)
	if got := d.dirtyBytes(); got != 0 {
		t.Fatalf("dirty bytes after the failed flush = %d, want 0", got)
	}
	d.Close() // reports the poisoned file; the MDS must still be consistent
	other := gc.mount(SyncCommit, nil)
	defer other.Close()
	if info, err := other.Stat("/d"); err != nil || info.Size != PageSize {
		t.Fatalf("committed size of /d = %d, %v; want %d", info.Size, err, PageSize)
	}
	gc.assertOrdered()
	gc.assertFsck()
}

// TestRecoveryDoesNotWaitForWriteBack: the MDS restarts while a write-back
// layout-get is in flight. The write-back routine is the goroutine that
// redials, sees the new incarnation and re-establishes the session — so
// re-establishment must not wait for write-back. The dead session's deferred
// data is dropped, like its uncommitted extents.
func TestRecoveryDoesNotWaitForWriteBack(t *testing.T) {
	gc := newGatedCluster(t)
	c := gc.mount(DelayedCommit, func(host string, cfg *Config) {
		cfg.Redial = func(int) (*rpc.Client, error) { return gc.dial(host), nil }
		cfg.Retry = RetryPolicy{MaxAttempts: 4, BaseDelay: time.Millisecond, MaxDelay: 4 * time.Millisecond}
	})
	f := mustCreate(t, c, "/f")
	kept := pattern(PageSize, 1)
	mustWrite(t, f, kept, 0)
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}

	release := gc.gate.holdOp(proto.OpLayoutGet)
	if _, err := f.Append(pattern(PageSize, 2)); err != nil {
		t.Fatal(err)
	}
	gc.gate.waitArrival(t, proto.OpLayoutGet)
	if _, err := f.Append(pattern(PageSize, 3)); err != nil { // still on the list
		t.Fatal(err)
	}
	sent := len(gc.gate.writeLayoutGets())
	gc.restartUnderHeldLayoutGet(c, release, false)

	returns(t, "Drain across the restart", func() {
		if err := c.Drain(); err != nil {
			t.Errorf("Drain: %v", err)
		}
	})
	if got := c.dirtyBytes(); got != 0 {
		t.Fatalf("dirty bytes after recovery = %d, want 0", got)
	}
	if got := f.Size(); got != PageSize {
		t.Fatalf("size after recovery = %d, want the committed %d", got, PageSize)
	}
	// The dead session's batch was not sent again into the new one: its
	// allocation would have stayed behind at the recovered MDS, longer than
	// what the file writes there next.
	if got := len(gc.gate.writeLayoutGets()); got != sent {
		t.Fatalf("%d layout-gets of the dead session's batch were sent after the restart, want none", got-sent)
	}
	// The session works again.
	if _, err := f.Append(pattern(PageSize, 4)); err != nil {
		t.Fatal(err)
	}
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}
	if got, want := readFile(t, c, "/f"), append(kept, pattern(PageSize, 4)...); !bytes.Equal(got, want) {
		t.Fatal("file content after recovery is not committed prefix + new append")
	}
	gc.assertOrdered()
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestInlineWriteSurvivesRestartDuringLayoutGet: an inline allocation — a
// SyncCommit write — whose layout-get spans an MDS restart has staged nothing
// the recovery could have thrown away; the retry's grant belongs to the new
// session and the write succeeds in it. Only write-behind batches are dropped
// on a session change.
func TestInlineWriteSurvivesRestartDuringLayoutGet(t *testing.T) {
	gc := newGatedCluster(t)
	c := gc.mount(SyncCommit, func(host string, cfg *Config) {
		cfg.Redial = func(int) (*rpc.Client, error) { return gc.dial(host), nil }
		cfg.Retry = RetryPolicy{MaxAttempts: 4, BaseDelay: time.Millisecond, MaxDelay: 4 * time.Millisecond}
	})
	f := mustCreate(t, c, "/f")
	first, second := pattern(PageSize, 1), pattern(PageSize, 2)
	mustWrite(t, f, first, 0)

	release := gc.gate.holdOp(proto.OpLayoutGet)
	werr := make(chan error, 1)
	go func() {
		_, err := f.WriteAt(second, PageSize)
		werr <- err
	}()
	gc.gate.waitArrival(t, proto.OpLayoutGet)
	gc.restartUnderHeldLayoutGet(c, release, true)

	select {
	case err := <-werr:
		if err != nil {
			t.Fatalf("WriteAt across the restart: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("WriteAt across the restart did not return")
	}
	if got := f.Size(); got != 2*PageSize {
		t.Fatalf("size = %d, want %d", got, 2*PageSize)
	}
	if got, want := readFile(t, c, "/f"), append(first, second...); !bytes.Equal(got, want) {
		t.Fatal("file content after the restart is not both writes")
	}
	gc.assertOrdered()
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	gc.assertFsck()
}

// TestStaleCommitIsNotResentAfterRestart: a commit request names extents of
// the session it was built in. When the reconnect that follows a dead
// connection finds a restarted MDS, the retry loop ends instead of sending the
// request into the new session — where the same space may have been delegated
// again and the stale extents would be accepted beside their new users.
func TestStaleCommitIsNotResentAfterRestart(t *testing.T) {
	gc := newGatedCluster(t)
	c := gc.mount(SyncCommit, func(host string, cfg *Config) {
		cfg.Redial = func(int) (*rpc.Client, error) { return gc.dial(host), nil }
		cfg.Retry = RetryPolicy{MaxAttempts: 4, BaseDelay: time.Millisecond, MaxDelay: 4 * time.Millisecond}
	})
	f := mustCreate(t, c, "/f")
	release := gc.gate.holdOp(proto.OpCommit)
	werr := make(chan error, 1)
	go func() {
		_, err := f.WriteAt(pattern(PageSize, 1), 0)
		werr <- err
	}()
	gc.gate.waitArrival(t, proto.OpCommit)

	up := gc.startMDS("mds-2", 2)
	gc.gate.mu.Lock()
	gc.gate.upstream = up
	gc.gate.mu.Unlock()
	old, _ := c.links[0].conn()
	old.Close()
	select {
	case err := <-werr:
		if !errors.Is(err, errSessionLost) {
			t.Fatalf("WriteAt across the restart = %v, want errSessionLost", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("WriteAt did not return: the stale commit was sent again and is parked at the gate")
	}
	select {
	case op := <-gc.gate.arrived:
		t.Fatalf("op %d reached the gate after the restart, want nothing", op)
	default:
	}
	release() // the orphaned request of the dead connection
	if got := f.Size(); got != 0 {
		t.Fatalf("size after recovery = %d, want the committed 0", got)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestWriteBehindObservability: the at-risk gauge and stall counter are
// exported, the write.behind span lands on the commit track, and the
// commit-leg identity still holds to the nanosecond with the flush wait
// inside datawait.
func TestWriteBehindObservability(t *testing.T) {
	gc := newGatedCluster(t)
	tracer := obs.NewTracer(0)
	c := gc.mount(DelayedCommit, func(_ string, cfg *Config) { cfg.Tracer = tracer })
	reg := obs.NewRegistry()
	c.RegisterMetrics(reg)
	gauge := func(name string) int64 {
		m, ok := reg.Snapshot().Get(name)
		if !ok {
			t.Fatalf("metric %s is not registered", name)
		}
		return m.Value
	}

	release := gc.gate.holdOp(proto.OpLayoutGet)
	for i := 0; i < 4; i++ {
		f := mustCreate(t, c, fmt.Sprintf("/o%d", i))
		mustWrite(t, f, pattern(2*PageSize, byte(i)), 0)
		f.Close()
	}
	if got := gauge("redbud_client_writeback_bytes"); got != 8*PageSize {
		t.Fatalf("redbud_client_writeback_bytes = %v with four files deferred, want %d", got, 8*PageSize)
	}
	// Every file is written and queued for commit; none can be flushed for
	// the next 3ms.
	held := gc.clk.Now()
	gc.clk.Sleep(3 * time.Millisecond) // the driver goroutine is the only one that advances
	release()
	if err := c.Drain(); err != nil {
		t.Fatal(err)
	}
	if got := gauge("redbud_client_writeback_bytes"); got != 0 {
		t.Fatalf("redbud_client_writeback_bytes = %v after Drain, want 0", got)
	}
	if got := gauge("redbud_client_writeback_stalls_total"); got != 0 {
		t.Fatalf("redbud_client_writeback_stalls_total = %v, want 0", got)
	}

	if err := c.Close(); err != nil { // every commit in flight has finished
		t.Fatal(err)
	}
	spans := tracer.Spans()
	behind := 0
	for _, s := range spans {
		if s.Name == obs.SpanWriteBehind {
			behind++
			if s.Track != c.trackCommit {
				t.Errorf("write.behind span on track %q, want %q", s.Track, c.trackCommit)
			}
			if s.End.Sub(s.Start) < 3*time.Millisecond {
				t.Errorf("write.behind span lasts %v, want at least the 3ms the layout-get was held", s.End.Sub(s.Start))
			}
		}
	}
	if behind != 4 {
		t.Fatalf("%d write.behind spans, want 4 (one flush per file)", behind)
	}
	b := obs.Analyze(spans)
	if b.Commits == 0 {
		t.Fatal("no commit reconstructed from the trace")
	}
	var legs time.Duration
	for _, s := range b.Stages {
		legs += s.Total
	}
	if legs != b.E2E {
		t.Fatalf("queue + datawait + batch + rpc = %v, e2e = %v", legs, b.E2E)
	}
	queued := 0
	for _, p := range b.PerCommit {
		if p.Queue+p.DataWait+p.Batch+p.RPC != p.E2E {
			t.Fatalf("commit %d: legs %v+%v+%v+%v != e2e %v", p.ID, p.Queue, p.DataWait, p.Batch, p.RPC, p.E2E)
		}
		if p.Start.After(held) {
			continue // built after the flush was released
		}
		// The flush wait sits ahead of batch and rpc: in datawait from the
		// moment a daemon checks the file out, in queue until then.
		queued++
		if p.Queue+p.DataWait < 3*time.Millisecond {
			t.Errorf("commit %d: queue %v + datawait %v do not hold the 3ms its flush was held", p.ID, p.Queue, p.DataWait)
		}
	}
	// One per file at least (Drain can build a second beside a daemon's).
	if queued < 4 {
		t.Fatalf("%d commits waited for the held flush, want at least 4", queued)
	}
}

// TestDryPoolRefillHoldsNoFileLock: a write that finds the delegation pool dry
// waits for the refill without the file's lock, so the file stays usable —
// and a device completion, which retires its write under that lock, is never
// stuck behind the delegate round trip.
func TestDryPoolRefillHoldsNoFileLock(t *testing.T) {
	// The case is the double-space-pool as it always runs: the standby
	// refill is on.
	t.Run("noPrefetch=false", func(t *testing.T) {
		gc := newGatedCluster(t)
		c := gc.mount(DelayedCommit, func(_ string, cfg *Config) {
			cfg.DelegationChunk = 1 << 20
		})
		f := mustCreate(t, c, "/f")
		release := gc.gate.holdOp(proto.OpDelegate)
		data := pattern(PageSize, 5)
		wrote := make(chan error, 1)
		go func() {
			_, err := f.WriteAt(data, 0)
			wrote <- err
		}()
		gc.gate.waitArrival(t, proto.OpDelegate)
		returns(t, "Size of the file while its write waits for the refill", func() { f.Size() })
		release()
		if err := <-wrote; err != nil {
			t.Fatal(err)
		}
		if err := f.Sync(); err != nil {
			t.Fatal(err)
		}
		if got := c.Stats().LocalAllocs; got == 0 {
			t.Fatal("the write did not allocate from the refilled pool")
		}
		got := make([]byte, PageSize)
		if _, err := f.ReadAt(got, 0); err != nil || !bytes.Equal(got, data) {
			t.Fatalf("read back %v, %v", err, bytes.Equal(got, data))
		}
		gc.assertOrdered()
		if err := c.Close(); err != nil {
			t.Fatal(err)
		}
	})
}

// TestInlineWritesHoldNoGoroutine: a device write in flight costs the client
// no goroutine; it retires in the device's completion callback. With the
// device's head held in one dispatch, 256 inline writes queue behind it.
func TestInlineWritesHoldNoGoroutine(t *testing.T) {
	tc := newCluster(t)
	// The device sleeps on a manual clock that a driver advances only once
	// the writes are counted.
	mc := clock.NewManual()
	var drive atomic.Bool
	stop, stopped := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(stopped)
		for {
			select {
			case <-stop:
				return
			default:
			}
			if !drive.Load() || !mc.AdvanceToNext() {
				time.Sleep(50 * time.Microsecond)
			}
		}
	}()
	t.Cleanup(func() { close(stop); <-stopped })
	dev := blockdev.New(blockdev.Config{ID: 0, Size: 1 << 30, Model: blockdev.FastHDD(), Clock: mc})
	t.Cleanup(func() { drive.Store(true); dev.Close() })
	tc.devices[0] = dev // the MDS's durability check reads this map too
	c := tc.client(DelayedCommit, 16<<20)
	f := mustCreate(t, c, "/f")
	const n = 256
	data := pattern((n+1)*PageSize, 9)
	// The first write primes the pool; its dispatch then holds the head.
	mustWrite(t, f, data[:PageSize], 0)
	eventually(t, "the first dispatch to hold the head", func() bool { return mc.Waiters() > 0 })
	before := runtime.NumGoroutine()
	for i := 1; i <= n; i++ {
		mustWrite(t, f, data[i*PageSize:(i+1)*PageSize], int64(i*PageSize))
	}
	rise := runtime.NumGoroutine() - before
	allocs := c.Stats().LocalAllocs
	drive.Store(true)
	if rise >= 16 {
		t.Fatalf("%d device writes in flight hold %d more goroutines", n, rise)
	}
	if allocs < n {
		t.Fatalf("%d of %d writes allocated locally: not all went inline", allocs, n)
	}
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(data))
	if _, err := f.ReadAt(got, 0); err != nil || !bytes.Equal(got, data) {
		t.Fatalf("read back %v, equal %v", err, bytes.Equal(got, data))
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
}
