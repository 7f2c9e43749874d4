package meta

import (
	"testing"
	"time"

	"redbud/internal/alloc"
	"redbud/internal/blockdev"
	"redbud/internal/clock"
)

// TestRecoveryFromEveryCrashPoint exercises the write-ahead contract
// exhaustively: after any crash that truncates the journal at an arbitrary
// byte boundary, recovery must succeed (stopping cleanly at the torn
// record), reproduce a prefix of the operation history, and leave the
// allocator exactly consistent with the recovered metadata.
func TestRecoveryFromEveryCrashPoint(t *testing.T) {
	clk := clock.Real(1)
	dev := blockdev.New(blockdev.Config{Size: 64 << 20, Model: blockdev.ZeroLatency(), Clock: clk})
	defer dev.Close()
	mkAGs := func() *alloc.AGSet { return alloc.NewUniformAGSet(0, 64<<20, 4) }

	// Build a history touching every record type.
	j := NewJournal(dev, 0, 32<<20)
	s := NewStore(Config{AGs: mkAGs(), Journal: j, Clock: clk})
	a, err := s.Create(RootID, "a", TypeFile)
	if err != nil {
		t.Fatal(err)
	}
	lay, err := s.AllocLayout("c1", a.ID, 0, 8192)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Commit("c1", a.ID, lay.Extents, 8192, time.Unix(7, 0).UTC()); err != nil {
		t.Fatal(err)
	}
	sp, err := settled(s.BeginDelegate(time.Time{}, "c2", 1<<20))
	if err != nil {
		t.Fatal(err)
	}
	b, err := s.Create(RootID, "b", TypeFile)
	if err != nil {
		t.Fatal(err)
	}
	ext := Extent{FileOff: 0, Len: 4096, Dev: uint32(sp.Dev), VolOff: sp.Off}
	if err := s.Commit("c2", b.ID, []Extent{ext}, 4096, time.Unix(8, 0).UTC()); err != nil {
		t.Fatal(err)
	}
	if err := settle(s.BeginReturnDelegation(time.Time{}, "c2", sp)); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Create(RootID, "tmp", TypeFile); err != nil {
		t.Fatal(err)
	}
	if err := s.Remove(RootID, "tmp"); err != nil {
		t.Fatal(err)
	}
	s.ClientGone("c1")
	tail := j.Tail()
	journalBytes, err := dev.Read(0, tail)
	if err != nil {
		t.Fatal(err)
	}

	// Sweep crash points: every 7 bytes plus both ends.
	for cut := int64(0); cut <= tail; cut += 7 {
		// Fresh device holding the truncated journal.
		d2 := blockdev.New(blockdev.Config{Size: 64 << 20, Model: blockdev.ZeroLatency(), Clock: clk})
		if err := d2.Write(0, journalBytes[:cut]); err != nil {
			t.Fatal(err)
		}
		ags := mkAGs()
		rec, st, err := Recover(Config{AGs: ags, Journal: NewJournal(d2, 0, 32<<20), Clock: clk})
		if err != nil {
			d2.Close()
			t.Fatalf("cut %d: recovery failed: %v", cut, err)
		}
		// Invariant 1: committed extents occupy allocated (non-free)
		// space — reserve of any committed extent must now fail.
		for _, name := range []string{"a", "b"} {
			attr, err := rec.Lookup(RootID, name)
			if err != nil {
				continue // not yet created at this crash point
			}
			lay, err := rec.GetLayout(attr.ID, 0, 1<<30)
			if err != nil {
				t.Fatalf("cut %d: layout: %v", cut, err)
			}
			for _, e := range lay.Extents {
				if err := ags.ReserveSpan(alloc.Span{Dev: int(e.Dev), Off: e.VolOff, Len: e.Len}); err == nil {
					t.Fatalf("cut %d: committed extent %v not accounted as allocated", cut, e)
				}
			}
		}
		// Invariant 2: accounting identity — free + accounted-live =
		// total. Everything not referenced by a live committed extent
		// must have been GC'd back.
		var live int64
		for _, name := range []string{"a", "b"} {
			attr, err := rec.Lookup(RootID, name)
			if err != nil {
				continue
			}
			lay, _ := rec.GetLayout(attr.ID, 0, 1<<30)
			for _, e := range lay.Extents {
				live += e.Len
			}
		}
		if got := ags.FreeBytes() + live; got != 64<<20 {
			t.Fatalf("cut %d: space leak: free %d + live %d != %d (stats %+v)",
				cut, ags.FreeBytes(), live, 64<<20, st)
		}
		d2.Close()
	}
}

// TestTornJournalGroupCommitWrite tears the physical journal write mid-record
// via the blockdev fault hook — the crash-consistency case the byte-sweep
// above cannot produce, because a torn device write leaves a durable strict
// prefix rather than a clean truncation. The operation whose record was torn
// must fail (write-ahead rule: it is never acknowledged), replay must stop at
// the torn record with every earlier record intact, and recovery must fsck
// clean.
func TestTornJournalGroupCommitWrite(t *testing.T) {
	// v1 is the group-commit journal generation; it is the only one left.
	t.Run("v1", tornJournalGroupCommitWrite)
}

func tornJournalGroupCommitWrite(t *testing.T) {
	clk := clock.Real(1)
	dev := newMetaDev(t)
	mkAGs := func() *alloc.AGSet { return alloc.NewUniformAGSet(0, 64<<20, 4) }
	s := NewStore(Config{AGs: mkAGs(), Journal: NewJournal(dev, 0, 32<<20), Clock: clk})

	// Clean prefix: create and commit a file.
	a, err := s.Create(RootID, "a", TypeFile)
	if err != nil {
		t.Fatal(err)
	}
	lay, err := s.AllocLayout("c1", a.ID, 0, 8192)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Commit("c1", a.ID, lay.Extents, 8192, time.Unix(7, 0).UTC()); err != nil {
		t.Fatal(err)
	}

	// Tear the next journal batch write mid-record.
	var fired bool
	dev.SetWriteFault(func(off, n int64) (blockdev.WriteFault, int64) {
		if fired {
			return blockdev.WriteOK, 0
		}
		fired = true
		return blockdev.WriteTorn, n / 2
	})
	if _, err := s.Create(RootID, "b", TypeFile); err == nil {
		t.Fatal("create with torn journal write was acknowledged")
	}
	dev.SetWriteFault(nil)
	if !fired {
		t.Fatal("torn-write hook never fired")
	}

	// Replay stops at the torn record; the records before it all decode.
	var replayed int
	torn, err := NewJournal(dev, 0, 32<<20).Replay(func(*Record) error {
		replayed++
		return nil
	})
	if err != nil {
		t.Fatalf("replay over torn journal errored: %v", err)
	}
	if !torn {
		t.Fatal("replay did not flag the torn tail")
	}
	if replayed < 3 { // create a, alloc, commit
		t.Fatalf("replay saw %d records before the tear, want >= 3", replayed)
	}

	// Full recovery over the torn journal: the acknowledged history
	// survives, the torn create never happened, and fsck is clean.
	rec, _, err := Recover(Config{AGs: mkAGs(), Journal: NewJournal(dev, 0, 32<<20), Clock: clk})
	if err != nil {
		t.Fatalf("recovery over torn journal failed: %v", err)
	}
	attr, err := rec.Lookup(RootID, "a")
	if err != nil || attr.Size != 8192 {
		t.Fatalf("acknowledged file lost after torn-journal recovery: %+v, %v", attr, err)
	}
	if _, err := rec.Lookup(RootID, "b"); err == nil {
		t.Fatal("unacknowledged (torn) create resurfaced after recovery")
	}
	if rep := rec.Fsck(64 << 20); !rep.OK() {
		t.Fatalf("fsck after torn-journal recovery: %s", rep)
	}
}

// TestRecoveryIdempotent runs recovery twice from the same journal; the
// second run (after the first appended its GC records) must see identical
// namespace state and a fully consistent allocator.
func TestRecoveryIdempotent(t *testing.T) {
	clk := clock.Real(1)
	dev := newMetaDev(t)
	mkAGs := func() *alloc.AGSet { return alloc.NewUniformAGSet(0, 64<<20, 4) }
	j := NewJournal(dev, 0, 32<<20)
	s := NewStore(Config{AGs: mkAGs(), Journal: j, Clock: clk})
	a, _ := s.Create(RootID, "f", TypeFile)
	lay, _ := s.AllocLayout("c1", a.ID, 0, 4096)
	if err := s.Commit("c1", a.ID, lay.Extents, 4096, time.Now().UTC()); err != nil {
		t.Fatal(err)
	}
	if _, err := settled(s.BeginDelegate(time.Time{}, "c1", 1<<20)); err != nil {
		t.Fatal(err)
	}

	r1, st1, err := Recover(Config{AGs: mkAGs(), Journal: NewJournal(dev, 0, 32<<20), Clock: clk})
	if err != nil {
		t.Fatal(err)
	}
	r2, st2, err := Recover(Config{AGs: mkAGs(), Journal: NewJournal(dev, 0, 32<<20), Clock: clk})
	if err != nil {
		t.Fatal(err)
	}
	if st2.Records <= st1.Records {
		t.Fatalf("second recovery replayed %d records, first %d (GC records missing)", st2.Records, st1.Records)
	}
	for _, rec := range []*Store{r1, r2} {
		attr, err := rec.Lookup(RootID, "f")
		if err != nil || attr.Size != 4096 {
			t.Fatalf("recovered state wrong: %+v, %v", attr, err)
		}
	}
	// Second recovery must not double-free the delegation GC'd by the
	// first: both end with identical free space.
	if f1, f2 := r1.cfg.AGs.FreeBytes(), r2.cfg.AGs.FreeBytes(); f1 != f2 {
		t.Fatalf("free bytes diverge across recoveries: %d vs %d", f1, f2)
	}
}
