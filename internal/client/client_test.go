package client

import (
	"bytes"
	"errors"
	"fmt"
	"runtime"
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
	"redbud/internal/proto"
	"redbud/internal/rpc"
)

// testCluster is an in-process Redbud deployment: devices, network, MDS, and
// a factory for clients.
type testCluster struct {
	t       *testing.T
	clk     clock.Clock
	devices map[uint32]*blockdev.Device
	net     *netsim.Network
	lis     *netsim.Listener
	mds     *mds.Server
	store   *meta.Store
	nextID  int
}

// newCluster builds a cluster with one data device. CommitCheck enforces the
// ordered-write invariant on EVERY commit the MDS processes: all referenced
// extents must already be durable on the array.
func newCluster(t *testing.T) *testCluster {
	t.Helper()
	clk := clock.Real(1)
	data := blockdev.New(blockdev.Config{ID: 0, Size: 1 << 30, Model: blockdev.ZeroLatency(), Clock: clk})
	t.Cleanup(data.Close)
	devices := map[uint32]*blockdev.Device{0: data}

	ags := alloc.NewUniformAGSet(0, 1<<30, 4)
	store := meta.NewStore(meta.Config{AGs: ags, Clock: clk})
	server := mds.New(mds.Config{
		Store:   store,
		Clock:   clk,
		Daemons: 4,
		CommitCheck: func(exts []meta.Extent) error {
			for _, e := range exts {
				d := devices[e.Dev]
				if d == nil {
					return fmt.Errorf("unknown device %d", e.Dev)
				}
				if !d.IsDurable(e.VolOff, e.Len) {
					return fmt.Errorf("extent dev%d[%d+%d) committed before durable", e.Dev, e.VolOff, e.Len)
				}
			}
			return nil
		},
	})
	t.Cleanup(server.Close)

	n := netsim.NewNetwork(clk)
	n.AddHost("mds", netsim.Instant())
	lis, err := n.Listen("mds")
	if err != nil {
		t.Fatal(err)
	}
	go server.Serve(lis)
	t.Cleanup(func() { lis.Close() })

	return &testCluster{t: t, clk: clk, devices: devices, net: n, lis: lis, mds: server, store: store}
}

// client mounts a new client with the given mode and delegation setting.
func (tc *testCluster) client(mode Mode, delegation int64) *Client {
	tc.t.Helper()
	tc.nextID++
	host := fmt.Sprintf("client-%d", tc.nextID)
	tc.net.AddHost(host, netsim.Instant())
	conn, err := tc.net.Dial(host, "mds")
	if err != nil {
		tc.t.Fatal(err)
	}
	devs := make(map[uint32]BlockDevice, len(tc.devices))
	for id, d := range tc.devices {
		devs[id] = d
	}
	return New(Config{
		Name:            host,
		MDS:             rpc.NewClient(conn, tc.clk),
		Devices:         devs,
		Clock:           tc.clk,
		Mode:            mode,
		DelegationChunk: delegation,
		PoolInterval:    time.Millisecond,
	})
}

func writeFile(t *testing.T, c *Client, path string, data []byte) {
	t.Helper()
	f, err := c.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt(data, 0); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
}

func readFile(t *testing.T, c *Client, path string) []byte {
	t.Helper()
	f, err := c.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	buf := make([]byte, f.Size())
	n, err := f.ReadAt(buf, 0)
	if err != nil {
		t.Fatal(err)
	}
	return buf[:n]
}

func pattern(n int, seed byte) []byte {
	p := make([]byte, n)
	for i := range p {
		p[i] = byte(i)*7 + seed
	}
	return p
}

func TestWriteReadRoundTripBothModes(t *testing.T) {
	for _, mode := range []Mode{SyncCommit, DelayedCommit} {
		t.Run(mode.String(), func(t *testing.T) {
			tc := newCluster(t)
			c := tc.client(mode, 0)
			data := pattern(10000, 3)
			writeFile(t, c, "/f.dat", data)
			got := readFile(t, c, "/f.dat")
			if !bytes.Equal(got, data) {
				t.Fatal("read-your-write mismatch")
			}
			if err := c.Close(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestCrossClientVisibilityAfterDrain(t *testing.T) {
	tc := newCluster(t)
	w := tc.client(DelayedCommit, 0)
	data := pattern(8192, 9)
	writeFile(t, w, "/shared.dat", data)
	if err := w.Drain(); err != nil {
		t.Fatal(err)
	}
	r := tc.client(SyncCommit, 0)
	got := readFile(t, r, "/shared.dat")
	if !bytes.Equal(got, data) {
		t.Fatal("cross-client read mismatch after drain")
	}
	w.Close()
	r.Close()
}

func TestOrderedWriteInvariantUnderLoad(t *testing.T) {
	// The MDS CommitCheck oracle fails any commit whose data is not yet
	// durable. Hammer the delayed path; every commit must pass.
	tc := newCluster(t)
	c := tc.client(DelayedCommit, 16<<20)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 30; i++ {
				path := fmt.Sprintf("/g%d-f%d", g, i)
				f, err := c.Create(path)
				if err != nil {
					t.Error(err)
					return
				}
				if _, err := f.WriteAt(pattern(4096, byte(i)), 0); err != nil {
					t.Error(err)
					return
				}
				f.Close()
			}
		}()
	}
	wg.Wait()
	if err := c.Close(); err != nil {
		t.Fatalf("close (drain) failed — an ordered-write violation surfaced: %v", err)
	}
	// Global invariant at the metadata level too.
	bad := tc.store.CheckConsistent(func(dev int, off, n int64) bool {
		return tc.devices[uint32(dev)].IsDurable(off, n)
	})
	if len(bad) != 0 {
		t.Fatalf("%d committed extents without durable data", len(bad))
	}
}

func TestCommitDedupReducesRPCs(t *testing.T) {
	tc := newCluster(t)
	c := tc.client(DelayedCommit, 0)
	f, err := c.Create("/hot.dat")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		if _, err := f.WriteAt(pattern(512, byte(i)), int64(i)*512); err != nil {
			t.Fatal(err)
		}
	}
	f.Close()
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	st := c.Stats()
	if st.QueueDedup == 0 {
		t.Fatalf("no dedup for 50 writes to one file: %+v", st)
	}
	if st.CommitsSent >= 50 {
		t.Fatalf("dedup ineffective: %d commits for 50 writes", st.CommitsSent)
	}
}

func TestDelegationAllocatesLocally(t *testing.T) {
	tc := newCluster(t)
	c := tc.client(DelayedCommit, 16<<20)
	var lastEnd int64 = -1
	contiguous := 0
	for i := 0; i < 20; i++ {
		f, err := c.Create(fmt.Sprintf("/small-%d", i))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := f.WriteAt(pattern(4096, byte(i)), 0); err != nil {
			t.Fatal(err)
		}
		f.Close()
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	st := c.Stats()
	if st.LocalAllocs != 20 {
		t.Fatalf("local allocs = %d, want 20", st.LocalAllocs)
	}
	if st.Delegations < 1 {
		t.Fatal("no delegation chunk requested")
	}
	// The files' extents must be contiguous on disk (the point of
	// delegation). Verify through the committed metadata.
	for i := 0; i < 20; i++ {
		attr, err := tc.store.Lookup(meta.RootID, fmt.Sprintf("/small-%d", i)[1:])
		if err != nil {
			t.Fatal(err)
		}
		lay, err := tc.store.GetLayout(attr.ID, 0, 4096)
		if err != nil {
			t.Fatal(err)
		}
		if len(lay.Extents) != 1 {
			t.Fatalf("file %d has %d extents", i, len(lay.Extents))
		}
		if lastEnd >= 0 && lay.Extents[0].VolOff == lastEnd {
			contiguous++
		}
		lastEnd = lay.Extents[0].VolOff + lay.Extents[0].Len
	}
	if contiguous < 15 {
		t.Fatalf("only %d of 19 successive files contiguous", contiguous)
	}
}

func TestLargeFileBypassesDelegation(t *testing.T) {
	tc := newCluster(t)
	c := tc.client(DelayedCommit, 1<<20) // 1 MiB chunks
	data := pattern(3<<20, 5)            // 3 MiB write > chunk
	writeFile(t, c, "/big.bin", data)
	got := readFile(t, c, "/big.bin")
	if !bytes.Equal(got, data) {
		t.Fatal("large file mismatch")
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestFsyncForcesDurability(t *testing.T) {
	tc := newCluster(t)
	c := tc.client(DelayedCommit, 0)
	f, err := c.Create("/mail/../mail.mbox") // also exercises odd paths
	if err != nil {
		// ".." is not supported; use a plain path.
		f, err = c.Create("/mail.mbox")
		if err != nil {
			t.Fatal(err)
		}
	}
	data := pattern(4096, 1)
	if _, err := f.WriteAt(data, 0); err != nil {
		t.Fatal(err)
	}
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}
	// Committed immediately: a second client sees it without any drain.
	r := tc.client(SyncCommit, 0)
	got := readFile(t, r, "/mail.mbox")
	if !bytes.Equal(got, data) {
		t.Fatal("fsynced data not visible")
	}
	f.Close()
	c.Close()
	r.Close()
}

func TestAppend(t *testing.T) {
	tc := newCluster(t)
	c := tc.client(DelayedCommit, 16<<20)
	f, err := c.Create("/log")
	if err != nil {
		t.Fatal(err)
	}
	var want []byte
	for i := 0; i < 10; i++ {
		chunk := pattern(1000, byte(i))
		off, err := f.Append(chunk)
		if err != nil {
			t.Fatal(err)
		}
		if off != int64(i)*1000 {
			t.Fatalf("append %d landed at %d", i, off)
		}
		want = append(want, chunk...)
	}
	got := make([]byte, len(want))
	n, err := f.ReadAt(got, 0)
	if err != nil || n != len(want) {
		t.Fatalf("read %d, %v", n, err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("append content mismatch")
	}
	f.Close()
	c.Close()
}

func TestSparseHolesReadZero(t *testing.T) {
	tc := newCluster(t)
	c := tc.client(SyncCommit, 0)
	f, err := c.Create("/sparse")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt([]byte("tail"), 100000); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 50)
	n, err := f.ReadAt(buf, 500)
	if err != nil || n != 50 {
		t.Fatalf("hole read = %d, %v", n, err)
	}
	for _, b := range buf {
		if b != 0 {
			t.Fatal("hole not zero")
		}
	}
	f.Close()
	c.Close()
}

func TestReadPastEOF(t *testing.T) {
	tc := newCluster(t)
	c := tc.client(SyncCommit, 0)
	f, _ := c.Create("/short")
	f.WriteAt([]byte("abc"), 0)
	buf := make([]byte, 10)
	n, err := f.ReadAt(buf, 0)
	if err != nil || n != 3 {
		t.Fatalf("short read = %d, %v", n, err)
	}
	if n, _ := f.ReadAt(buf, 100); n != 0 {
		t.Fatalf("read past EOF = %d", n)
	}
	f.Close()
	c.Close()
}

func TestPartialPageOverwritePreservesNeighbours(t *testing.T) {
	tc := newCluster(t)
	c := tc.client(SyncCommit, 0)
	f, _ := c.Create("/partial")
	base := pattern(2*PageSize, 1)
	if _, err := f.WriteAt(base, 0); err != nil {
		t.Fatal(err)
	}
	// Overwrite 100 bytes straddling the page boundary.
	patch := bytes.Repeat([]byte{0xEE}, 100)
	if _, err := f.WriteAt(patch, PageSize-50); err != nil {
		t.Fatal(err)
	}
	f.Close()
	c.Drain()
	// A fresh client (no cache) must see base with the patch applied.
	r := tc.client(SyncCommit, 0)
	got := readFile(t, r, "/partial")
	want := append([]byte(nil), base...)
	copy(want[PageSize-50:], patch)
	if !bytes.Equal(got, want) {
		t.Fatal("partial-page overwrite corrupted neighbours")
	}
	c.Close()
	r.Close()
}

func TestMkdirStatReadDirRemove(t *testing.T) {
	tc := newCluster(t)
	c := tc.client(DelayedCommit, 0)
	if err := c.Mkdir("/a"); err != nil {
		t.Fatal(err)
	}
	if err := c.Mkdir("/a/b"); err != nil {
		t.Fatal(err)
	}
	writeFile(t, c, "/a/b/f.txt", pattern(100, 0))
	info, err := c.Stat("/a/b/f.txt")
	if err != nil || info.Size != 100 || info.Dir {
		t.Fatalf("stat = %+v, %v", info, err)
	}
	if info, err := c.Stat("/a"); err != nil || !info.Dir {
		t.Fatalf("dir stat = %+v, %v", info, err)
	}
	ents, err := c.ReadDir("/a/b")
	if err != nil || len(ents) != 1 || ents[0].Name != "f.txt" {
		t.Fatalf("readdir = %+v, %v", ents, err)
	}
	if err := c.Remove("/a/b/f.txt"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Stat("/a/b/f.txt"); !errors.Is(err, fsapi.ErrNotExist) {
		t.Fatalf("stat removed err = %v", err)
	}
	if err := c.Remove("/a/b"); err != nil {
		t.Fatal(err)
	}
	c.Close()
}

func TestOpenErrors(t *testing.T) {
	tc := newCluster(t)
	c := tc.client(SyncCommit, 0)
	if _, err := c.Open("/nope"); !errors.Is(err, fsapi.ErrNotExist) {
		t.Fatalf("open missing err = %v", err)
	}
	c.Mkdir("/d")
	if _, err := c.Open("/d"); !errors.Is(err, fsapi.ErrIsDir) {
		t.Fatalf("open dir err = %v", err)
	}
	writeFile(t, c, "/f", []byte("x"))
	if _, err := c.Create("/f"); !errors.Is(err, fsapi.ErrExist) {
		t.Fatalf("create dup err = %v", err)
	}
	c.Close()
}

// TestRefusalsKeepTheirKind: an MDS refusal reaches the caller as the fsapi
// sentinel of its kind, whatever the names in its message say.
func TestRefusalsKeepTheirKind(t *testing.T) {
	tc := newCluster(t)
	c := tc.client(SyncCommit, 0)
	defer c.Close()
	writeFile(t, c, "/not found", []byte("x"))
	if _, err := c.Create("/not found"); !errors.Is(err, fsapi.ErrExist) || errors.Is(err, fsapi.ErrNotExist) {
		t.Fatalf("second create of /not found = %v, want fsapi.ErrExist only", err)
	}
	if err := c.Mkdir("/already exists"); err != nil {
		t.Fatal(err)
	}
	writeFile(t, c, "/already exists/f", []byte("x"))
	if err := c.Remove("/already exists"); !errors.Is(err, fsapi.ErrNotEmpty) {
		t.Fatalf("remove of a non-empty directory = %v, want fsapi.ErrNotEmpty", err)
	}
	if _, err := c.ReadDir("/not found"); !errors.Is(err, fsapi.ErrInvalid) {
		t.Fatalf("readdir of a file = %v, want fsapi.ErrInvalid", err)
	}
	if err := c.Rename("/already exists", "/already exists/sub"); !errors.Is(err, fsapi.ErrInvalid) {
		t.Fatalf("rename into its own subtree = %v, want fsapi.ErrInvalid", err)
	}
}

func TestDoubleCloseFileAndClient(t *testing.T) {
	tc := newCluster(t)
	c := tc.client(SyncCommit, 0)
	f, _ := c.Create("/f")
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); !errors.Is(err, fsapi.ErrClosed) {
		t.Fatalf("double close err = %v", err)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	if err := c.Close(); !errors.Is(err, fsapi.ErrClosed) {
		t.Fatalf("double client close err = %v", err)
	}
}

func TestCrashOrphansAreGCd(t *testing.T) {
	tc := newCluster(t)
	free0 := tc.store.Delegations("client-1") // 0
	_ = free0
	c := tc.client(DelayedCommit, 1<<20)
	f, err := c.Create("/doomed")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt(pattern(4096, 1), 0); err != nil {
		t.Fatal(err)
	}
	// Crash before the background commit can fire... or after; either
	// way the delegation chunk's unused space must come back.
	c.Crash()
	reclaimed := tc.store.ClientGone(c.cfg.Name)
	if reclaimed == 0 {
		t.Fatal("nothing reclaimed from crashed client")
	}
	// Invariant: whatever IS committed references durable data.
	bad := tc.store.CheckConsistent(func(dev int, off, n int64) bool {
		return tc.devices[uint32(dev)].IsDurable(off, n)
	})
	if len(bad) != 0 {
		t.Fatalf("%d inconsistent extents after crash GC", len(bad))
	}
}

func TestStatsSnapshot(t *testing.T) {
	tc := newCluster(t)
	c := tc.client(DelayedCommit, 16<<20)
	writeFile(t, c, "/s1", pattern(4096, 1))
	readFile(t, c, "/s1")
	c.Drain()
	st := c.Stats()
	if st.Creates != 1 || st.Writes != 1 || st.Reads == 0 || st.Closes != 2 {
		t.Fatalf("stats = %+v", st)
	}
	if st.BytesWritten != 4096 {
		t.Fatalf("bytes written = %d", st.BytesWritten)
	}
	if st.RPCs == 0 || st.CommitsSent == 0 {
		t.Fatalf("rpc stats = %+v", st)
	}
	c.Close()
}

func TestConcurrentFilesManyWriters(t *testing.T) {
	tc := newCluster(t)
	c := tc.client(DelayedCommit, 16<<20)
	var wg sync.WaitGroup
	for g := 0; g < 6; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				path := fmt.Sprintf("/w%d-%d", g, i)
				data := pattern(2048, byte(g*31+i))
				writeFile(t, c, path, data)
				got := readFile(t, c, path)
				if !bytes.Equal(got, data) {
					t.Errorf("%s mismatch", path)
					return
				}
			}
		}()
	}
	wg.Wait()
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestWriteAtNegativeOffset(t *testing.T) {
	tc := newCluster(t)
	c := tc.client(SyncCommit, 0)
	f, _ := c.Create("/f")
	if _, err := f.WriteAt([]byte("x"), -1); err == nil {
		t.Fatal("negative write offset accepted")
	}
	if _, err := f.ReadAt(make([]byte, 1), -1); err == nil {
		t.Fatal("negative read offset accepted")
	}
	if n, err := f.WriteAt(nil, 0); n != 0 || err != nil {
		t.Fatalf("empty write = %d, %v", n, err)
	}
	f.Close()
	c.Close()
}

func TestFixedCommitThreadsPinned(t *testing.T) {
	tc := newCluster(t)
	tc.nextID++
	host := fmt.Sprintf("client-%d", tc.nextID)
	tc.net.AddHost(host, netsim.Instant())
	conn, err := tc.net.Dial(host, "mds")
	if err != nil {
		t.Fatal(err)
	}
	devs := map[uint32]BlockDevice{0: tc.devices[0]}
	// The client gets its own manual clock so the pool's resize ticks are
	// driven explicitly — no wall-clock polling. (Data-path waits go
	// through the devices, which run on the cluster clock.)
	mclk := clock.NewManual()
	c := New(Config{
		Name: host, MDS: rpc.NewClient(conn, tc.clk), Devices: devs, Clock: mclk,
		Mode: DelayedCommit, FixedCommitThreads: 4, PoolInterval: time.Millisecond,
	})
	defer c.Close()
	// A pinned pool is sized synchronously in New.
	if got := c.CommitThreads(); got != 4 {
		t.Fatalf("pinned pool size = %d, want 4", got)
	}
	// Drive several resize ticks; the pin must hold through each.
	for i := 0; i < 3; i++ {
		for mclk.Waiters() == 0 {
			// The resizer re-arms its timer between ticks; yield until
			// it is parked on the clock again.
			runtime.Gosched()
		}
		mclk.Advance(time.Millisecond)
		if got := c.CommitThreads(); got != 4 {
			t.Fatalf("tick %d: pinned pool size = %d, want 4", i+1, got)
		}
	}
	// Still functional.
	writeFile(t, c, "/pinned", pattern(4096, 1))
	if err := c.Drain(); err != nil {
		t.Fatal(err)
	}
}

func TestCommitEvenIfCleanSendsExtraRPCs(t *testing.T) {
	tc := newCluster(t)
	tc.nextID++
	host := fmt.Sprintf("client-%d", tc.nextID)
	tc.net.AddHost(host, netsim.Instant())
	conn, err := tc.net.Dial(host, "mds")
	if err != nil {
		t.Fatal(err)
	}
	c := New(Config{
		Name: host, MDS: rpc.NewClient(conn, tc.clk),
		Devices: map[uint32]BlockDevice{0: tc.devices[0]}, Clock: tc.clk,
		Mode: DelayedCommit, CommitEvenIfClean: true,
	})
	defer c.Close()
	writeFile(t, c, "/f", pattern(4096, 1))
	if err := c.Drain(); err != nil {
		t.Fatal(err)
	}
	before := c.Stats().CommitsSent
	// Fsync on an already-clean file still sends a commit in this mode.
	f, _ := c.Open("/f")
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}
	f.Close()
	if got := c.Stats().CommitsSent; got <= before {
		t.Fatalf("clean commit not sent: %d -> %d", before, got)
	}
}

func TestStatReflectsLocalUncommittedSize(t *testing.T) {
	tc := newCluster(t)
	c := tc.client(DelayedCommit, 16<<20)
	defer c.Close()
	f, err := c.Create("/grow")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt(pattern(10000, 1), 0); err != nil {
		t.Fatal(err)
	}
	// Before any commit lands, Stat must already report the local size.
	info, err := c.Stat("/grow")
	if err != nil || info.Size != 10000 {
		t.Fatalf("stat = %+v, %v", info, err)
	}
	f.Close()
}

// uncommittedWriter simulates a delayed-commit writer frozen in the window
// between data durability and metadata commit: it creates a file over raw
// RPC, allocates extents, and writes durable data into them — but never
// sends the commit.
func uncommittedWriter(t *testing.T, tc *testCluster, path string, n int) {
	t.Helper()
	tc.net.AddHost("rawwriter", netsim.Instant())
	conn, err := tc.net.Dial("rawwriter", "mds")
	if err != nil {
		t.Fatal(err)
	}
	w := rpc.NewClient(conn, tc.clk)
	t.Cleanup(func() { w.Close() })
	var attr proto.AttrResp
	if err := w.Call(proto.OpCreate, &proto.CreateReq{Parent: meta.RootID, Name: path, Type: meta.TypeFile}, &attr); err != nil {
		t.Fatal(err)
	}
	var lay proto.LayoutResp
	req := &proto.LayoutGetReq{Owner: "rawwriter", File: attr.ID, Off: 0, Len: int64(n), Flags: meta.LayoutWrite}
	if err := w.Call(proto.OpLayoutGet, req, &lay); err != nil {
		t.Fatal(err)
	}
	data := pattern(n, 21)
	for _, e := range lay.Extents {
		if err := tc.devices[e.Dev].Write(e.VolOff, data[e.FileOff:e.FileOff+e.Len]); err != nil {
			t.Fatal(err)
		}
	}
}

// TestConflictReadSeesOnlyCommitted: a peer's durable-but-uncommitted bytes
// stay invisible to a reader until the writer's commit lands, and reading
// them neither caches the writer's extents nor commits them.
func TestConflictReadSeesOnlyCommitted(t *testing.T) {
	tc := newCluster(t)
	uncommittedWriter(t, tc, "conflict.dat", 8192)

	// The file exists but appears empty.
	r := tc.client(SyncCommit, 0)
	defer r.Close()
	rf, err := r.Open("/conflict.dat")
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 8192)
	if n, err := rf.ReadAt(buf, 0); err != nil || n != 0 {
		t.Fatalf("conflict read = %d, %v; want 0 bytes", n, err)
	}
	// The foreign uncommitted extents were never cached: the reader holds
	// nothing it could ever sweep into a commit.
	fs := rf.(*File).fs
	fs.mu.Lock()
	for _, e := range fs.extents {
		if e.State == meta.StateUncommitted {
			fs.mu.Unlock()
			t.Fatalf("foreign uncommitted extent cached in fs.extents: %+v", e)
		}
	}
	fs.mu.Unlock()
	rf.Close()
	if err := r.Drain(); err != nil {
		t.Fatal(err)
	}
	// The MDS still shows the file uncommitted: reading did not commit.
	id, err := tc.store.Lookup(meta.RootID, "conflict.dat")
	if err != nil {
		t.Fatal(err)
	}
	if id.Size != 0 {
		t.Fatalf("reader side-effect: committed size = %d", id.Size)
	}
	lay, err := tc.store.GetLayout(id.ID, 0, 8192)
	if err != nil {
		t.Fatal(err)
	}
	if len(lay.Extents) != 0 {
		t.Fatalf("reader committed foreign extents: %+v", lay.Extents)
	}
}
