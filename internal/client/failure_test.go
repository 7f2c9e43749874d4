package client

import (
	"fmt"
	"testing"
	"time"

	"redbud/internal/fsapi"
)

// TestDeviceCrashSurfacesOnSync injects a disk-array failure under a delayed
// write: the error must surface on the next durability point (Sync), not be
// swallowed by the background daemons.
func TestDeviceCrashSurfacesOnSync(t *testing.T) {
	tc := newCluster(t)
	c := tc.client(DelayedCommit, 0)
	f, err := c.Create("/victim")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt(pattern(4096, 1), 0); err != nil {
		t.Fatal(err)
	}
	// Wait for the in-flight write to land, then crash the device and
	// write again: the new writepage must fail.
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}
	tc.devices[0].Crash()
	if _, err := f.WriteAt(pattern(4096, 2), 8192); err == nil {
		// The write itself may succeed (async submit); the error must
		// then surface on Sync.
		if err := f.Sync(); err == nil {
			t.Fatal("device crash swallowed by delayed path")
		}
	}
	tc.devices[0].Recover()
}

// TestDeviceCrashFailsCommitCleanly checks that a crash between writepage
// and commit never commits: the MDS state stays consistent.
func TestDeviceCrashFailsCommitCleanly(t *testing.T) {
	tc := newCluster(t)
	c := tc.client(SyncCommit, 0)
	f, err := c.Create("/v2")
	if err != nil {
		t.Fatal(err)
	}
	tc.devices[0].Crash()
	if _, err := f.WriteAt(pattern(4096, 3), 0); err == nil {
		t.Fatal("sync write succeeded on crashed device")
	}
	tc.devices[0].Recover()
	// Nothing was committed: the file reads back empty via the MDS.
	lay, err := tc.store.GetLayout(2, 0, 4096)
	if err != nil {
		t.Fatal(err)
	}
	if len(lay.Extents) != 0 {
		t.Fatalf("crashed write left committed extents: %+v", lay.Extents)
	}
	bad := tc.store.CheckConsistent(func(dev int, off, n int64) bool {
		return tc.devices[uint32(dev)].IsDurable(off, n)
	})
	if len(bad) != 0 {
		t.Fatalf("inconsistency after device crash: %+v", bad)
	}
}

// TestMDSConnectionLossFailsOps kills the MDS connection mid-run: namespace
// operations must fail promptly, not hang.
func TestMDSConnectionLossFailsOps(t *testing.T) {
	tc := newCluster(t)
	c := tc.client(DelayedCommit, 0)
	if _, err := c.Create("/pre"); err != nil {
		t.Fatal(err)
	}
	func() { mds, _ := c.links[0].conn(); mds.Close() }()
	done := make(chan error, 1)
	go func() {
		_, err := c.Create("/post")
		done <- err
	}()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("create succeeded after MDS connection loss")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("create hung after MDS connection loss")
	}
}

// TestLeaseGCAfterClientCrashKeepsOthersWorking injects a client crash and
// verifies surviving clients are unaffected while the orphans are recycled.
func TestLeaseGCAfterClientCrashKeepsOthersWorking(t *testing.T) {
	tc := newCluster(t)
	victim := tc.client(DelayedCommit, 1<<20)
	survivor := tc.client(DelayedCommit, 1<<20)
	defer survivor.Close()

	for i := 0; i < 5; i++ {
		f, err := victim.Create(fmt.Sprintf("/v-%d", i))
		if err != nil {
			t.Fatal(err)
		}
		f.WriteAt(pattern(4096, byte(i)), 0)
		f.Close()
	}
	victim.Crash()
	reclaimed := tc.store.ClientGone(victim.cfg.Name)
	if reclaimed <= 0 {
		t.Fatal("nothing reclaimed from crashed client")
	}
	// The survivor keeps working, including allocating fresh space that
	// may reuse the reclaimed range.
	for i := 0; i < 10; i++ {
		path := fmt.Sprintf("/s-%d", i)
		writeFile(t, survivor, path, pattern(8192, byte(i)))
	}
	if err := survivor.Drain(); err != nil {
		t.Fatal(err)
	}
	bad := tc.store.CheckConsistent(func(dev int, off, n int64) bool {
		return tc.devices[uint32(dev)].IsDurable(off, n)
	})
	if len(bad) != 0 {
		t.Fatalf("%d inconsistent extents after GC + reuse", len(bad))
	}
}

// TestReadAfterWriterCrashSeesCommittedPrefixOnly: a reader must never see
// data the crashed writer did not commit (no metadata = no access, the
// ordered-write guarantee).
func TestReadAfterWriterCrashSeesCommittedPrefixOnly(t *testing.T) {
	tc := newCluster(t)
	w := tc.client(DelayedCommit, 0)
	f, err := w.Create("/partial")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt(pattern(4096, 1), 0); err != nil {
		t.Fatal(err)
	}
	if err := f.Sync(); err != nil { // first page committed
		t.Fatal(err)
	}
	// Second page written but the commit may be pending when we crash.
	if _, err := f.WriteAt(pattern(4096, 2), 4096); err != nil {
		t.Fatal(err)
	}
	w.Crash()
	tc.store.ClientGone(w.cfg.Name)

	r := tc.client(SyncCommit, 0)
	defer r.Close()
	info, err := r.Stat("/partial")
	if err != nil {
		t.Fatal(err)
	}
	// Size is either 4096 (commit lost) or 8192 (background commit won);
	// in both cases every byte the reader can reach must be valid.
	if info.Size != 4096 && info.Size != 8192 {
		t.Fatalf("size = %d", info.Size)
	}
	g, err := r.Open("/partial")
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, info.Size)
	n, err := g.ReadAt(buf, 0)
	if err != nil || int64(n) != info.Size {
		t.Fatalf("read = %d, %v", n, err)
	}
	want := pattern(4096, 1)
	for i := 0; i < 4096; i++ {
		if buf[i] != want[i] {
			t.Fatalf("committed prefix corrupted at %d", i)
		}
	}
	if _, ok := interface{}(fsapi.FileSystem(r)).(fsapi.FileSystem); !ok {
		t.Fatal("unreachable")
	}
}
