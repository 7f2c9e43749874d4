package meta

import (
	"strings"
	"testing"
	"time"

	"redbud/internal/alloc"
	"redbud/internal/clock"
)

func fsckStore(t *testing.T) (*Store, int64) {
	t.Helper()
	ags := alloc.NewUniformAGSet(0, 64<<20, 4)
	s := NewStore(Config{AGs: ags, Clock: clock.Real(1)})
	return s, TotalSpace(ags)
}

func TestFsckCleanStore(t *testing.T) {
	s, total := fsckStore(t)
	r := s.Fsck(total)
	if !r.OK() {
		t.Fatalf("fresh store dirty: %v", r.Problems)
	}
	if r.Files != 0 || r.FreeBytes != total {
		t.Fatalf("report = %+v", r)
	}
	if !strings.Contains(r.String(), "clean") {
		t.Fatalf("string = %q", r.String())
	}
}

func TestFsckCleanAfterWorkload(t *testing.T) {
	s, total := fsckStore(t)
	dir, _ := s.Create(RootID, "d", TypeDir)
	for i := 0; i < 5; i++ {
		f, err := s.Create(dir.ID, string(rune('a'+i)), TypeFile)
		if err != nil {
			t.Fatal(err)
		}
		lay, err := s.AllocLayout("c1", f.ID, 0, 8192)
		if err != nil {
			t.Fatal(err)
		}
		if i%2 == 0 {
			if err := s.Commit("c1", f.ID, lay.Extents, 8192, time.Now().UTC()); err != nil {
				t.Fatal(err)
			}
		}
	}
	sp, err := settled(s.BeginDelegate(time.Time{}, "c2", 1<<20))
	if err != nil {
		t.Fatal(err)
	}
	g, _ := s.Create(RootID, "deleg-file", TypeFile)
	ext := Extent{FileOff: 0, Len: 4096, Dev: uint32(sp.Dev), VolOff: sp.Off}
	if err := s.Commit("c2", g.ID, []Extent{ext}, 4096, time.Now().UTC()); err != nil {
		t.Fatal(err)
	}
	r := s.Fsck(total)
	if !r.OK() {
		t.Fatalf("dirty after workload: %v", r.Problems)
	}
	if r.Files != 7 || r.Extents != 6 {
		t.Fatalf("report = %+v", r)
	}
	// After remove + client-gone the identity must still hold.
	if err := s.Remove(RootID, "deleg-file"); err != nil {
		t.Fatal(err)
	}
	s.ClientGone("c1")
	s.ClientGone("c2")
	r = s.Fsck(total)
	if !r.OK() {
		t.Fatalf("dirty after GC: %v", r.Problems)
	}
}

func TestFsckCleanAfterRecovery(t *testing.T) {
	dev := newMetaDev(t)
	mkAGs := func() *alloc.AGSet { return alloc.NewUniformAGSet(0, 64<<20, 4) }
	j := NewJournal(dev, 0, 32<<20)
	s := NewStore(Config{AGs: mkAGs(), Journal: j, Clock: clock.Real(1)})
	a, _ := s.Create(RootID, "x", TypeFile)
	lay, _ := s.AllocLayout("c1", a.ID, 0, 4096)
	if err := s.Commit("c1", a.ID, lay.Extents, 4096, time.Now().UTC()); err != nil {
		t.Fatal(err)
	}
	ags := mkAGs()
	rec, _, err := Recover(Config{AGs: ags, Journal: NewJournal(dev, 0, 32<<20), Clock: clock.Real(1)})
	if err != nil {
		t.Fatal(err)
	}
	if r := rec.Fsck(TotalSpace(ags)); !r.OK() {
		t.Fatalf("dirty after recovery: %v", r.Problems)
	}
}

func TestFsckDetectsAccountingDrift(t *testing.T) {
	s, total := fsckStore(t)
	a, _ := s.Create(RootID, "f", TypeFile)
	lay, _ := s.AllocLayout("c1", a.ID, 0, 4096)
	_ = lay
	// Lie about the total: the identity must fail.
	if r := s.Fsck(total + 12345); r.OK() {
		t.Fatal("fsck accepted wrong total space")
	}
}

func TestFsckDetectsCorruptExtents(t *testing.T) {
	s, total := fsckStore(t)
	a, _ := s.Create(RootID, "f", TypeFile)
	if _, err := s.AllocLayout("c1", a.ID, 0, 8192); err != nil {
		t.Fatal(err)
	}
	// Corrupt in-memory state directly: duplicate a physical extent under
	// another file.
	b, _ := s.Create(RootID, "g", TypeFile)
	s.ns.Lock()
	src := s.inodes[a.ID].extents[0]
	dup := src
	s.inodes[b.ID].extents = append(s.inodes[b.ID].extents, dup)
	s.ns.Unlock()
	r := s.Fsck(total)
	if r.OK() {
		t.Fatal("fsck missed physical double-reference")
	}
	found := false
	for _, p := range r.Problems {
		if strings.Contains(p, "physical overlap") {
			found = true
		}
	}
	if !found {
		t.Fatalf("problems = %v", r.Problems)
	}
}

func TestFsckDetectsDanglingEntry(t *testing.T) {
	s, total := fsckStore(t)
	a, _ := s.Create(RootID, "f", TypeFile)
	s.ns.Lock()
	delete(s.inodes, a.ID) // corrupt: entry without inode
	s.ns.Unlock()
	if r := s.Fsck(total); r.OK() {
		t.Fatal("fsck missed dangling entry")
	}
}
