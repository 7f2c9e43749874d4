package meta

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"redbud/internal/alloc"
	"redbud/internal/blockdev"
	"redbud/internal/clock"
)

func newLogSetDev(t *testing.T) *blockdev.Device {
	t.Helper()
	d := blockdev.New(blockdev.Config{Size: 128 << 20, Model: blockdev.ZeroLatency(), Clock: clock.Real(1)})
	t.Cleanup(d.Close)
	return d
}

func TestOpenLogSetFreshDevice(t *testing.T) {
	dev := newLogSetDev(t)
	ls, j, err := OpenLogSet(dev, 16<<20)
	if err != nil {
		t.Fatal(err)
	}
	if ls.Generation() != 1 || ls.ActiveRegion() != 0 {
		t.Fatalf("fresh log set gen=%d region=%d", ls.Generation(), ls.ActiveRegion())
	}
	if j.Generation() != 1 {
		t.Fatalf("journal gen = %d", j.Generation())
	}
	// Reopen: same state (superblock persisted).
	ls2, j2, err := OpenLogSet(dev, 16<<20)
	if err != nil {
		t.Fatal(err)
	}
	if ls2.Generation() != 1 || j2.Generation() != 1 {
		t.Fatal("superblock not persisted")
	}
}

func TestOpenLogSetTooLarge(t *testing.T) {
	dev := newLogSetDev(t)
	if _, _, err := OpenLogSet(dev, 1<<30); err == nil {
		t.Fatal("oversized log set accepted")
	}
}

func TestOpenLogSetDamagedSuperblockReformats(t *testing.T) {
	dev := newLogSetDev(t)
	if _, _, err := OpenLogSet(dev, 16<<20); err != nil {
		t.Fatal(err)
	}
	// Flip a superblock byte.
	raw, _ := dev.Read(0, 1)
	dev.Write(0, []byte{raw[0] ^ 0xff})
	ls, _, err := OpenLogSet(dev, 16<<20)
	if err != nil {
		t.Fatal(err)
	}
	if ls.Generation() != 1 {
		t.Fatalf("reformatted gen = %d", ls.Generation())
	}
}

// checkpointWorld builds a store with rich state over a log set.
func checkpointWorld(t *testing.T) (*blockdev.Device, *LogSet, *Store, func() *alloc.AGSet) {
	t.Helper()
	dev := newLogSetDev(t)
	mkAGs := func() *alloc.AGSet { return alloc.NewUniformAGSet(0, 64<<20, 4) }
	ls, j, err := OpenLogSet(dev, 16<<20)
	if err != nil {
		t.Fatal(err)
	}
	s := NewStore(Config{AGs: mkAGs(), Journal: j, Clock: clock.Real(1)})

	dir, err := s.Create(RootID, "data", TypeDir)
	if err != nil {
		t.Fatal(err)
	}
	a, _ := s.Create(dir.ID, "committed.bin", TypeFile)
	lay, err := s.AllocLayout("c1", a.ID, 0, 8192)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Commit("c1", a.ID, lay.Extents, 8192, time.Unix(42, 0).UTC()); err != nil {
		t.Fatal(err)
	}
	b, _ := s.Create(dir.ID, "pending.bin", TypeFile)
	if _, err := s.AllocLayout("c2", b.ID, 0, 4096); err != nil {
		t.Fatal(err)
	}
	sp, err := settled(s.BeginDelegate(time.Time{}, "c3", 1<<20))
	if err != nil {
		t.Fatal(err)
	}
	cfile, _ := s.Create(RootID, "deleg.bin", TypeFile)
	ext := Extent{FileOff: 0, Len: 4096, Dev: uint32(sp.Dev), VolOff: sp.Off + 8192}
	if err := s.Commit("c3", cfile.ID, []Extent{ext}, 4096, time.Unix(43, 0).UTC()); err != nil {
		t.Fatal(err)
	}
	return dev, ls, s, mkAGs
}

// verifyWorld checks the recovered state matches checkpointWorld (before any
// GC considerations: pass expectPending=false after a recovery that GC'd
// orphans).
func verifyWorld(t *testing.T, s *Store, expectPending bool) {
	t.Helper()
	dir, err := s.Lookup(RootID, "data")
	if err != nil {
		t.Fatal(err)
	}
	a, err := s.Lookup(dir.ID, "committed.bin")
	if err != nil || a.Size != 8192 {
		t.Fatalf("committed.bin: %+v, %v", a, err)
	}
	lay, err := s.GetLayout(a.ID, 0, 8192)
	if err != nil || len(lay.Extents) == 0 {
		t.Fatalf("committed.bin layout: %+v, %v", lay, err)
	}
	c, err := s.Lookup(RootID, "deleg.bin")
	if err != nil || c.Size != 4096 {
		t.Fatalf("deleg.bin: %+v, %v", c, err)
	}
	b, err := s.Lookup(dir.ID, "pending.bin")
	if err != nil {
		t.Fatal(err)
	}
	bexts := extentsOf(s, b.ID, 0, 4096)
	if expectPending && len(bexts) != 1 {
		t.Fatalf("pending extent lost: %+v", bexts)
	}
	if !expectPending && len(bexts) != 0 {
		t.Fatalf("orphan extent survived GC: %+v", bexts)
	}
}

func TestCheckpointRoundTrip(t *testing.T) {
	dev, ls, s, mkAGs := checkpointWorld(t)

	j2, err := ls.Checkpoint(s.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	if ls.Generation() != 2 || ls.ActiveRegion() != 1 {
		t.Fatalf("after checkpoint: gen=%d region=%d", ls.Generation(), ls.ActiveRegion())
	}
	s.SetJournal(j2)
	// Post-checkpoint mutation lands in the new log.
	if _, err := s.Create(RootID, "after.txt", TypeFile); err != nil {
		t.Fatal(err)
	}

	// Reopen from disk: replay must see snapshot + tail mutation.
	ls2, j3, err := OpenLogSet(dev, 16<<20)
	if err != nil {
		t.Fatal(err)
	}
	if ls2.Generation() != 2 || ls2.ActiveRegion() != 1 {
		t.Fatalf("reopened: gen=%d region=%d", ls2.Generation(), ls2.ActiveRegion())
	}
	rec, st, err := Recover(Config{AGs: mkAGs(), Journal: j3, Clock: clock.Real(1)})
	if err != nil {
		t.Fatal(err)
	}
	if st.Torn {
		t.Fatal("checkpointed log reported torn")
	}
	verifyWorld(t, rec, false) // recovery GC'd the pending orphan
	if _, err := rec.Lookup(RootID, "after.txt"); err != nil {
		t.Fatalf("post-checkpoint record lost: %v", err)
	}
}

func TestCheckpointCompactsLog(t *testing.T) {
	dev, ls, s, _ := checkpointWorld(t)
	// Blow the log up with create/remove churn.
	for i := 0; i < 200; i++ {
		if _, err := s.Create(RootID, "churn", TypeFile); err != nil {
			t.Fatal(err)
		}
		if err := s.Remove(RootID, "churn"); err != nil {
			t.Fatal(err)
		}
	}
	_, j0, err := OpenLogSet(dev, 16<<20)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := j0.Replay(func(*Record) error { return nil }); err != nil {
		t.Fatal(err)
	}
	before := j0.Tail()

	j2, err := ls.Checkpoint(s.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	if j2.Tail() >= before/4 {
		t.Fatalf("checkpoint did not compact: %d -> %d bytes", before, j2.Tail())
	}
}

func TestCheckpointTwiceReusesFirstRegion(t *testing.T) {
	dev, ls, s, mkAGs := checkpointWorld(t)
	j2, err := ls.Checkpoint(s.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	s.SetJournal(j2)
	if _, err := s.Create(RootID, "between.txt", TypeFile); err != nil {
		t.Fatal(err)
	}
	j3, err := ls.Checkpoint(s.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	s.SetJournal(j3)
	if ls.Generation() != 3 || ls.ActiveRegion() != 0 {
		t.Fatalf("gen=%d region=%d", ls.Generation(), ls.ActiveRegion())
	}
	// Region 0 was reused: its old generation-1 records must not replay.
	_, j4, err := OpenLogSet(dev, 16<<20)
	if err != nil {
		t.Fatal(err)
	}
	rec, _, err := Recover(Config{AGs: mkAGs(), Journal: j4, Clock: clock.Real(1)})
	if err != nil {
		t.Fatal(err)
	}
	verifyWorld(t, rec, false)
	if _, err := rec.Lookup(RootID, "between.txt"); err != nil {
		t.Fatalf("between.txt lost across double checkpoint: %v", err)
	}
}

// TestCrashBeforeSuperblockFlipKeepsOldLog simulates a crash after the
// snapshot is written but before the superblock flip: recovery must still
// use the old region.
func TestCrashBeforeSuperblockFlipKeepsOldLog(t *testing.T) {
	dev, ls, s, mkAGs := checkpointWorld(t)
	// Write the snapshot into the inactive region WITHOUT flipping, by
	// hand (simulating the crash window inside Checkpoint).
	snapshot := s.Snapshot()
	j := NewJournalGen(dev, ls.regionOff(1), 16<<20, ls.Generation()+1)
	for _, rec := range snapshot {
		if err := <-j.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	// "Crash": reopen. Superblock still points at region 0, gen 1.
	ls2, j2, err := OpenLogSet(dev, 16<<20)
	if err != nil {
		t.Fatal(err)
	}
	if ls2.Generation() != 1 || ls2.ActiveRegion() != 0 {
		t.Fatalf("gen=%d region=%d, want old log", ls2.Generation(), ls2.ActiveRegion())
	}
	rec, _, err := Recover(Config{AGs: mkAGs(), Journal: j2, Clock: clock.Real(1)})
	if err != nil {
		t.Fatal(err)
	}
	verifyWorld(t, rec, false)
}

// TestSnapshotOfSnapshotIsStable: snapshotting a store recovered from a
// snapshot yields an equivalent record stream (fixed point).
func TestSnapshotOfSnapshotIsStable(t *testing.T) {
	_, ls, s, mkAGs := checkpointWorld(t)
	snap1 := s.Snapshot()
	j2, err := ls.Checkpoint(snap1)
	if err != nil {
		t.Fatal(err)
	}
	rec, _, err := Recover(Config{AGs: mkAGs(), Journal: j2, Clock: clock.Real(1)})
	if err != nil {
		t.Fatal(err)
	}
	snap2 := rec.Snapshot()
	// Recovery GC'd the orphans, so snap2 is smaller; but re-recovering
	// from snap2 must reproduce identical state (compare snapshots).
	ls2Dev := newLogSetDev(t)
	ls2, j3, err := OpenLogSet(ls2Dev, 16<<20)
	if err != nil {
		t.Fatal(err)
	}
	j4, err := ls2.Checkpoint(snap2)
	if err != nil {
		t.Fatal(err)
	}
	_ = j3
	rec2, _, err := Recover(Config{AGs: mkAGs(), Journal: j4, Clock: clock.Real(1)})
	if err != nil {
		t.Fatal(err)
	}
	snap3 := rec2.Snapshot()
	if len(snap2) != len(snap3) {
		t.Fatalf("snapshot not a fixed point: %d vs %d records", len(snap2), len(snap3))
	}
	for i := range snap2 {
		a, b := snap2[i], snap3[i]
		if a.Type != b.Type || a.File != b.File || a.Name != b.Name || a.Owner != b.Owner ||
			a.Size != b.Size || len(a.Extents) != len(b.Extents) {
			t.Fatalf("record %d differs: %+v vs %+v", i, a, b)
		}
	}
}

func TestBadSuperblockErrors(t *testing.T) {
	if !errors.Is(ErrBadSuperblock, ErrBadSuperblock) {
		t.Fatal("sentinel sanity")
	}
}

// TestCheckpointToAtomicUnderConcurrency hammers the store with mutations
// while checkpoints fire; no acknowledged mutation may be lost.
func TestCheckpointToAtomicUnderConcurrency(t *testing.T) {
	dev := newLogSetDev(t)
	mkAGs := func() *alloc.AGSet { return alloc.NewUniformAGSet(0, 64<<20, 4) }
	ls, j, err := OpenLogSet(dev, 16<<20)
	if err != nil {
		t.Fatal(err)
	}
	s := NewStore(Config{AGs: mkAGs(), Journal: j, Clock: clock.Real(1)})

	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 200; i++ {
			name := fmt.Sprintf("f-%d", i)
			if _, err := s.Create(RootID, name, TypeFile); err != nil {
				t.Errorf("create %s: %v", name, err)
				return
			}
		}
	}()
	for i := 0; i < 10; i++ {
		if err := s.CheckpointTo(ls); err != nil {
			t.Fatal(err)
		}
	}
	<-done

	// Every acknowledged create must survive recovery.
	_, jr, err := OpenLogSet(dev, 16<<20)
	if err != nil {
		t.Fatal(err)
	}
	rec, _, err := Recover(Config{AGs: mkAGs(), Journal: jr, Clock: clock.Real(1)})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 200; i++ {
		if _, err := rec.Lookup(RootID, fmt.Sprintf("f-%d", i)); err != nil {
			t.Fatalf("f-%d lost across concurrent checkpoints: %v", i, err)
		}
	}
}

// A store whose journal failed holds a mutation the journal refused. A
// checkpoint would write it into a fresh log and restart the journal, so it
// is refused, and a restart replays the prefix the failed log holds.
func TestCheckpointRefusedAfterJournalFailure(t *testing.T) {
	dev := newLogSetDev(t)
	mkAGs := func() *alloc.AGSet { return alloc.NewUniformAGSet(0, 64<<20, 4) }
	ls, j, err := OpenLogSet(dev, 16<<20)
	if err != nil {
		t.Fatal(err)
	}
	s := NewStore(Config{AGs: mkAGs(), Journal: j, Clock: clock.Real(1)})
	if _, err := s.Create(RootID, "kept", TypeFile); err != nil {
		t.Fatal(err)
	}
	dev.SetWriteFault(func(off, n int64) (blockdev.WriteFault, int64) { return blockdev.WriteError, 0 })
	if _, err := s.Create(RootID, "refused", TypeFile); !errors.Is(err, ErrJournalFailed) {
		t.Fatalf("create over a failed journal write: %v, want ErrJournalFailed", err)
	}
	dev.SetWriteFault(nil)
	if err := s.CheckpointTo(ls); !errors.Is(err, ErrJournalFailed) {
		t.Fatalf("checkpoint of a failed journal: %v, want ErrJournalFailed", err)
	}

	_, jr, err := OpenLogSet(dev, 16<<20)
	if err != nil {
		t.Fatal(err)
	}
	rec, _, err := Recover(Config{AGs: mkAGs(), Journal: jr, Clock: clock.Real(1)})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rec.Lookup(RootID, "kept"); err != nil {
		t.Fatalf("acknowledged create lost: %v", err)
	}
	if _, err := rec.Lookup(RootID, "refused"); err == nil {
		t.Fatal("refused create survived recovery")
	}
}
