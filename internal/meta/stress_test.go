package meta

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"redbud/internal/alloc"
	"redbud/internal/blockdev"
	"redbud/internal/clock"
)

// TestStoreConcurrentStress hammers the striped-lock store from many
// goroutines under -race: per-file create/alloc/write/commit/remove cycles,
// delegation carve-and-commit workers, and readers sweeping the namespace.
// Afterwards it asserts the ordered-write invariant (CheckConsistent against
// the data device's durability oracle), a clean fsck, and that replaying the
// group-committed journal reproduces a store that also fscks clean.
func TestStoreConcurrentStress(t *testing.T) {
	const (
		workers    = 8
		delegators = 2
		readers    = 2
		rounds     = 40
		fileSize   = int64(4096)
		totalSpace = int64(64 << 20)
	)

	metaDev := blockdev.New(blockdev.Config{Size: 64 << 20, Model: blockdev.ZeroLatency(), Clock: clock.Real(1)})
	defer metaDev.Close()
	dataDev := blockdev.New(blockdev.Config{Size: totalSpace, Model: blockdev.ZeroLatency(), Clock: clock.Real(1)})
	defer dataDev.Close()

	j := NewJournal(metaDev, 0, 32<<20)
	ags := alloc.NewUniformAGSet(0, totalSpace, 8)
	s := NewStore(Config{AGs: ags, Journal: j, Clock: clock.Real(1)})

	var wg, rwg sync.WaitGroup
	fail := make(chan error, workers+delegators+readers)
	stop := make(chan struct{})

	// File workers: each owns a distinct name per round, exercising the
	// full lifecycle so every lock path (ns exclusive, ns shared + stripe)
	// interleaves with the others.
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			owner := fmt.Sprintf("client-%d", w)
			for i := 0; i < rounds; i++ {
				name := fmt.Sprintf("w%d-f%d", w, i)
				a, err := s.Create(RootID, name, TypeFile)
				if err != nil {
					fail <- fmt.Errorf("%s create: %w", owner, err)
					return
				}
				lay, err := s.AllocLayout(owner, a.ID, 0, fileSize)
				if err != nil {
					fail <- fmt.Errorf("%s alloc: %w", owner, err)
					return
				}
				// Ordered write: data reaches the disk before the
				// commit RPC would be sent.
				for _, e := range lay.Extents {
					if err := dataDev.Write(e.VolOff, make([]byte, e.Len)); err != nil {
						fail <- fmt.Errorf("%s data write: %w", owner, err)
						return
					}
				}
				if err := s.Commit(owner, a.ID, lay.Extents, fileSize, s.clk.Now()); err != nil {
					fail <- fmt.Errorf("%s commit: %w", owner, err)
					return
				}
				if got, err := s.Lookup(RootID, name); err != nil || got.Size != fileSize {
					fail <- fmt.Errorf("%s lookup after commit: %+v, %v", owner, got, err)
					return
				}
				// Remove every other file so the namespace stays busy
				// in both directions.
				if i%2 == 1 {
					if err := s.Remove(RootID, name); err != nil {
						fail <- fmt.Errorf("%s remove: %w", owner, err)
						return
					}
				}
			}
		}(w)
	}

	// Delegation workers: grant a chunk, carve small files out of it
	// client-side, commit them, return the delegation.
	for d := 0; d < delegators; d++ {
		wg.Add(1)
		go func(d int) {
			defer wg.Done()
			owner := fmt.Sprintf("deleg-%d", d)
			for i := 0; i < rounds/4; i++ {
				sp, err := settled(s.BeginDelegate(time.Time{}, owner, 1<<16))
				if err != nil {
					fail <- fmt.Errorf("%s delegate: %w", owner, err)
					return
				}
				carve := sp.Off
				for k := 0; k < 4; k++ {
					name := fmt.Sprintf("d%d-f%d-%d", d, i, k)
					a, err := s.Create(RootID, name, TypeFile)
					if err != nil {
						fail <- fmt.Errorf("%s create: %w", owner, err)
						return
					}
					ext := Extent{FileOff: 0, Len: fileSize, Dev: uint32(sp.Dev), VolOff: carve, State: StateCommitted}
					carve += fileSize
					if err := dataDev.Write(ext.VolOff, make([]byte, ext.Len)); err != nil {
						fail <- fmt.Errorf("%s data write: %w", owner, err)
						return
					}
					if err := s.Commit(owner, a.ID, []Extent{ext}, fileSize, s.clk.Now()); err != nil {
						fail <- fmt.Errorf("%s deleg commit: %w", owner, err)
						return
					}
				}
				if err := settle(s.BeginReturnDelegation(time.Time{}, owner, sp)); err != nil {
					fail <- fmt.Errorf("%s return: %w", owner, err)
					return
				}
			}
		}(d)
	}

	// Readers: sweep the namespace while it churns. ErrNotFound is the
	// expected race with removals, anything else is a bug.
	for r := 0; r < readers; r++ {
		rwg.Add(1)
		go func() {
			defer rwg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				ents, err := s.ReadDir(RootID)
				if err != nil {
					fail <- fmt.Errorf("reader readdir: %w", err)
					return
				}
				for _, e := range ents {
					if _, err := s.GetAttr(e.ID); err != nil && !errors.Is(err, ErrNotFound) {
						fail <- fmt.Errorf("reader getattr: %w", err)
						return
					}
					if _, err := s.GetLayout(e.ID, 0, fileSize); err != nil && !errors.Is(err, ErrNotFound) {
						fail <- fmt.Errorf("reader getlayout: %w", err)
						return
					}
				}
				_ = s.FileCount()
			}
		}()
	}

	wg.Wait()
	close(stop)
	rwg.Wait()
	select {
	case err := <-fail:
		t.Fatal(err)
	default:
	}

	if bad := s.CheckConsistent(func(dev int, off, n int64) bool { return dataDev.IsDurable(off, n) }); len(bad) != 0 {
		t.Fatalf("ordered-write violation: %d committed extents not durable: %+v", len(bad), bad[0])
	}
	if rep := s.Fsck(totalSpace); !rep.OK() {
		t.Fatalf("fsck after stress: %v", rep)
	}
	appends, batches := j.GroupCommitStats()
	if appends == 0 {
		t.Fatal("no journal appends recorded")
	}
	t.Logf("journal: %d appends in %d batches (%.1fx amortization)", appends, batches, float64(appends)/float64(batches))

	// The journal the concurrent run produced must replay into an
	// equivalent store. Orphan GC during recovery only reclaims space
	// (there are no live clients after replay), so the recovered image
	// must fsck clean and keep every committed file.
	ags2 := alloc.NewUniformAGSet(0, totalSpace, 8)
	j2 := NewJournal(metaDev, 0, 32<<20)
	s2, st, err := Recover(Config{AGs: ags2, Journal: j2, Clock: clock.Real(1)})
	if err != nil {
		t.Fatal(err)
	}
	if st.Torn {
		t.Fatal("clean shutdown replayed as torn")
	}
	if rep := s2.Fsck(totalSpace); !rep.OK() {
		t.Fatalf("fsck after recovery: %v", rep)
	}
	if got, want := s2.FileCount(), s.FileCount(); got != want {
		t.Fatalf("recovered %d files, want %d", got, want)
	}
	if bad := s2.CheckConsistent(func(dev int, off, n int64) bool { return dataDev.IsDurable(off, n) }); len(bad) != 0 {
		t.Fatalf("recovered store breaks ordered-write invariant: %d extents", len(bad))
	}
}
