package meta

import (
	"crypto/sha256"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"redbud/internal/alloc"
	"redbud/internal/clock"
	"redbud/internal/obs"
	"redbud/internal/wire"
)

// storeHash digests a store's whole state: the snapshot record stream is the
// canonical serialization (it rebuilds the store exactly, namespace in
// breadth-first sorted order), plus the allocator's free space.
func storeHash(s *Store) string {
	h := sha256.New()
	for _, rec := range s.Snapshot() {
		h.Write(wire.Encode(rec))
	}
	fmt.Fprintf(h, "free=%d", s.cfg.AGs.FreeBytes())
	return fmt.Sprintf("%x", h.Sum(nil))
}

// replayHash applies recs, in the order given, to a fresh store.
func replayHash(t *testing.T, mkAGs func() *alloc.AGSet, recs []*Record) string {
	t.Helper()
	s := NewStore(Config{AGs: mkAGs(), Clock: clock.Real(1)})
	for i, rec := range recs {
		if err := s.applyRecord(rec); err != nil {
			t.Fatalf("record %d (type %d, file %d): %v", i, rec.Type, rec.File, err)
		}
	}
	return storeHash(s)
}

// The MDS begins every commit of a compound before it waits for any of them,
// which is sound only if commits to different inodes commute: whatever order
// their records reach the journal in, replay must build the same store. Test
// that premise directly — record the journal of one gathered compound, replay
// it with the compound's records permuted, and require an identical store.
func TestCrossInodeCommitsCommute(t *testing.T) {
	const files = 8
	mkAGs := func() *alloc.AGSet { return alloc.NewUniformAGSet(0, 64<<20, 4) }
	dev := newMetaDev(t)
	s := NewStore(Config{AGs: mkAGs(), Journal: NewJournal(dev, 0, 32<<20), Clock: clock.Real(1)})

	layouts := make([]Layout, files)
	for i := range layouts {
		a, err := s.Create(RootID, fmt.Sprintf("f%d", i), TypeFile)
		if err != nil {
			t.Fatal(err)
		}
		if layouts[i], err = s.AllocLayout("c1", a.ID, 0, int64(i+1)*4096); err != nil {
			t.Fatal(err)
		}
	}
	// One compound, as the daemon runs it: begin all, then wait for all.
	waits := make([]Durable, files)
	for i, lay := range layouts {
		var err error
		waits[i], err = s.BeginCommit(time.Time{}, "c1", lay.File, lay.Extents, int64(i+1)*4096, time.Unix(int64(100+i), 0).UTC(), 0, obs.SpanContext{})
		if err != nil {
			t.Fatal(err)
		}
	}
	for _, wait := range waits {
		if _, err := wait(); err != nil {
			t.Fatal(err)
		}
	}

	var recs []*Record
	if _, err := NewJournal(dev, 0, 32<<20).Replay(func(rec *Record) error {
		c := *rec
		recs = append(recs, &c)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	first := len(recs) - files
	for _, rec := range recs[first:] {
		if rec.Type != RecCommit {
			t.Fatalf("journal tail holds a type-%d record, want the compound's %d commits", rec.Type, files)
		}
	}

	want := replayHash(t, mkAGs, recs)
	if live := storeHash(s); live != want {
		t.Fatalf("replay in journal order builds %s, the live store is %s", want, live)
	}
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 20; trial++ {
		perm := append([]*Record(nil), recs...)
		rng.Shuffle(files, func(i, j int) { perm[first+i], perm[first+j] = perm[first+j], perm[first+i] })
		if got := replayHash(t, mkAGs, perm); got != want {
			order := make([]FileID, files)
			for i, rec := range perm[first:] {
				order[i] = rec.File
			}
			t.Fatalf("replaying the compound's commits in file order %v builds a different store", order)
		}
	}
}
