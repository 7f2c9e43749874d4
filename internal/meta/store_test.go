package meta

import (
	"errors"
	"testing"
	"time"

	"redbud/internal/alloc"
	"redbud/internal/blockdev"
	"redbud/internal/clock"
)

// newStore returns a volatile store over a 64 MiB pool with 4 AGs.
func newStore(t *testing.T) *Store {
	t.Helper()
	ags := alloc.NewUniformAGSet(0, 64<<20, 4)
	return NewStore(Config{AGs: ags, Clock: clock.Real(1)})
}

// settled is settle for a Begin<Op> that also returns a value.
func settled[T any](v T, durable Durable, err error) (T, error) {
	if err := settle(durable, err); err != nil {
		var zero T
		return zero, err
	}
	return v, nil
}

// createAs is BeginCreate waited out: a create on behalf of owner.
func createAs(s *Store, owner string, parent FileID, name string, typ FileType) (Attr, bool, error) {
	a, granted, durable, err := s.BeginCreate(time.Time{}, owner, parent, name, typ)
	if err := settle(durable, err); err != nil {
		return Attr{}, false, err
	}
	return a, granted, nil
}

func mustCreate(t *testing.T, s *Store, parent FileID, name string, typ FileType) Attr {
	t.Helper()
	a, err := s.Create(parent, name, typ)
	if err != nil {
		t.Fatal(err)
	}
	return a
}

// extentsOf returns every extent of id overlapping [off, off+n) as the inode
// holds them, committed or not (GetLayout shows committed ones only).
func extentsOf(s *Store, id FileID, off, n int64) []Extent {
	s.ns.RLock()
	defer s.ns.RUnlock()
	ino, ok := s.inodes[id]
	if !ok {
		return nil
	}
	st := s.stripe(id)
	st.RLock()
	defer st.RUnlock()
	return ino.extentsIn(off, n, false)
}

func TestCreateLookup(t *testing.T) {
	s := newStore(t)
	a := mustCreate(t, s, RootID, "hello.txt", TypeFile)
	if a.ID == RootID || a.Type != TypeFile || a.Size != 0 {
		t.Fatalf("attr = %+v", a)
	}
	got, err := s.Lookup(RootID, "hello.txt")
	if err != nil || got.ID != a.ID {
		t.Fatalf("lookup = %+v, %v", got, err)
	}
	if _, err := s.Lookup(RootID, "missing"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("missing lookup err = %v", err)
	}
	if _, err := s.Create(RootID, "hello.txt", TypeFile); !errors.Is(err, ErrExists) {
		t.Fatalf("dup create err = %v", err)
	}
	if _, err := s.Create(999, "x", TypeFile); !errors.Is(err, ErrNotFound) {
		t.Fatalf("create under missing parent err = %v", err)
	}
	for _, bad := range []string{"", ".", ".."} {
		if _, err := s.Create(RootID, bad, TypeFile); err == nil {
			t.Fatalf("create %q succeeded", bad)
		}
	}
}

func TestMkdirAndReadDir(t *testing.T) {
	s := newStore(t)
	dir := mustCreate(t, s, RootID, "sub", TypeDir)
	mustCreate(t, s, dir.ID, "a", TypeFile)
	mustCreate(t, s, dir.ID, "b", TypeFile)
	ents, err := s.ReadDir(dir.ID)
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != 2 || ents[0].Name != "a" || ents[1].Name != "b" {
		t.Fatalf("readdir = %+v", ents)
	}
	if _, err := s.ReadDir(ents[0].ID); !errors.Is(err, ErrNotDir) {
		t.Fatalf("readdir on file err = %v", err)
	}
	if _, err := s.ReadDir(12345); !errors.Is(err, ErrNotFound) {
		t.Fatalf("readdir missing err = %v", err)
	}
}

func TestRemove(t *testing.T) {
	s := newStore(t)
	free0 := s.cfg.AGs.FreeBytes()
	a := mustCreate(t, s, RootID, "f", TypeFile)
	lay, err := s.AllocLayout("c1", a.ID, 0, 8192)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Commit("c1", a.ID, lay.Extents, 8192, time.Now()); err != nil {
		t.Fatal(err)
	}
	if err := s.Remove(RootID, "f"); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Lookup(RootID, "f"); !errors.Is(err, ErrNotFound) {
		t.Fatal("file still visible after remove")
	}
	if got := s.cfg.AGs.FreeBytes(); got != free0 {
		t.Fatalf("space leaked after remove: %d != %d", got, free0)
	}
	if err := s.Remove(RootID, "f"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("double remove err = %v", err)
	}
}

func TestRemoveNonEmptyDir(t *testing.T) {
	s := newStore(t)
	dir := mustCreate(t, s, RootID, "d", TypeDir)
	mustCreate(t, s, dir.ID, "child", TypeFile)
	if err := s.Remove(RootID, "d"); !errors.Is(err, ErrNotEmpty) {
		t.Fatalf("err = %v", err)
	}
	if err := s.Remove(dir.ID, "child"); err != nil {
		t.Fatal(err)
	}
	if err := s.Remove(RootID, "d"); err != nil {
		t.Fatal(err)
	}
}

func TestAllocLayoutAndCommit(t *testing.T) {
	s := newStore(t)
	a := mustCreate(t, s, RootID, "f", TypeFile)
	lay, err := s.AllocLayout("c1", a.ID, 0, 4096)
	if err != nil {
		t.Fatal(err)
	}
	if len(lay.Extents) == 0 {
		t.Fatal("no extents allocated")
	}
	if lay.Extents[0].State != StateUncommitted {
		t.Fatal("fresh extent not uncommitted")
	}
	// Reads from other clients see nothing yet.
	ro, err := s.GetLayout(a.ID, 0, 4096)
	if err != nil {
		t.Fatal(err)
	}
	if len(ro.Extents) != 0 {
		t.Fatalf("uncommitted extent visible to readers: %+v", ro.Extents)
	}
	// Commit, then it becomes visible.
	mt := time.Now().UTC()
	if err := s.Commit("c1", a.ID, lay.Extents, 4096, mt); err != nil {
		t.Fatal(err)
	}
	ro, _ = s.GetLayout(a.ID, 0, 4096)
	if len(ro.Extents) != len(lay.Extents) || ro.Extents[0].State != StateCommitted {
		t.Fatalf("committed layout = %+v", ro.Extents)
	}
	attr, _ := s.GetAttr(a.ID)
	if attr.Size != 4096 || !attr.MTime.Equal(mt) {
		t.Fatalf("attr after commit = %+v", attr)
	}
}

func TestAllocLayoutReusesExistingExtents(t *testing.T) {
	s := newStore(t)
	a := mustCreate(t, s, RootID, "f", TypeFile)
	lay1, err := s.AllocLayout("c1", a.ID, 0, 4096)
	if err != nil {
		t.Fatal(err)
	}
	lay2, err := s.AllocLayout("c1", a.ID, 0, 4096)
	if err != nil {
		t.Fatal(err)
	}
	if len(lay1.Extents) != len(lay2.Extents) || lay1.Extents[0].VolOff != lay2.Extents[0].VolOff {
		t.Fatalf("overwrite did not reuse extents: %+v vs %+v", lay1.Extents, lay2.Extents)
	}
}

func TestAllocLayoutFillsGapOnly(t *testing.T) {
	s := newStore(t)
	a := mustCreate(t, s, RootID, "f", TypeFile)
	if _, err := s.AllocLayout("c1", a.ID, 0, 4096); err != nil {
		t.Fatal(err)
	}
	free1 := s.cfg.AGs.FreeBytes()
	// Extend: [0,8192) needs only 4096 more bytes.
	lay, err := s.AllocLayout("c1", a.ID, 0, 8192)
	if err != nil {
		t.Fatal(err)
	}
	if got := free1 - s.cfg.AGs.FreeBytes(); got != 4096 {
		t.Fatalf("gap fill allocated %d bytes, want 4096", got)
	}
	var covered int64
	for _, e := range lay.Extents {
		covered += e.Len
	}
	if covered != 8192 {
		t.Fatalf("layout covers %d bytes", covered)
	}
}

func TestCommitUnallocatedRejected(t *testing.T) {
	s := newStore(t)
	a := mustCreate(t, s, RootID, "f", TypeFile)
	bogus := []Extent{{FileOff: 0, Len: 4096, Dev: 0, VolOff: 12345}}
	if err := s.Commit("c1", a.ID, bogus, 4096, time.Now()); !errors.Is(err, ErrBadCommit) {
		t.Fatalf("bogus commit err = %v", err)
	}
}

func TestCommitErrors(t *testing.T) {
	s := newStore(t)
	if err := s.Commit("c1", 999, nil, 0, time.Now()); !errors.Is(err, ErrNotFound) {
		t.Fatalf("missing file commit err = %v", err)
	}
	if err := s.Commit("c1", RootID, nil, 0, time.Now()); !errors.Is(err, ErrIsDir) {
		t.Fatalf("dir commit err = %v", err)
	}
	if _, err := s.AllocLayout("c1", RootID, 0, 10); !errors.Is(err, ErrIsDir) {
		t.Fatalf("dir alloc err = %v", err)
	}
	if _, err := s.GetLayout(999, 0, 10); !errors.Is(err, ErrNotFound) {
		t.Fatalf("missing getlayout err = %v", err)
	}
}

func TestDelegationCommit(t *testing.T) {
	s := newStore(t)
	a := mustCreate(t, s, RootID, "f", TypeFile)
	sp, err := settled(s.BeginDelegate(time.Time{}, "c1", 16<<20))
	if err != nil {
		t.Fatal(err)
	}
	if sp.Len != 16<<20 {
		t.Fatalf("chunk = %v", sp)
	}
	if s.Delegations("c1") != 1 {
		t.Fatal("delegation not recorded")
	}
	// Client carves an extent from the chunk and commits it.
	ext := Extent{FileOff: 0, Len: 4096, Dev: uint32(sp.Dev), VolOff: sp.Off + 8192}
	if err := s.Commit("c1", a.ID, []Extent{ext}, 4096, time.Now()); err != nil {
		t.Fatal(err)
	}
	// Another client cannot commit from c1's delegation.
	b := mustCreate(t, s, RootID, "g", TypeFile)
	ext2 := Extent{FileOff: 0, Len: 4096, Dev: uint32(sp.Dev), VolOff: sp.Off + 65536}
	if err := s.Commit("c2", b.ID, []Extent{ext2}, 4096, time.Now()); !errors.Is(err, ErrBadCommit) {
		t.Fatalf("cross-client delegation commit err = %v", err)
	}
}

func TestReturnDelegationFreesGaps(t *testing.T) {
	s := newStore(t)
	a := mustCreate(t, s, RootID, "f", TypeFile)
	free0 := s.cfg.AGs.FreeBytes()
	sp, err := settled(s.BeginDelegate(time.Time{}, "c1", 1<<20))
	if err != nil {
		t.Fatal(err)
	}
	ext := Extent{FileOff: 0, Len: 4096, Dev: uint32(sp.Dev), VolOff: sp.Off}
	if err := s.Commit("c1", a.ID, []Extent{ext}, 4096, time.Now()); err != nil {
		t.Fatal(err)
	}
	if err := settle(s.BeginReturnDelegation(time.Time{}, "c1", sp)); err != nil {
		t.Fatal(err)
	}
	// All but the committed 4096 bytes must be free again.
	if got := s.cfg.AGs.FreeBytes(); got != free0-4096 {
		t.Fatalf("free = %d, want %d", got, free0-4096)
	}
	if err := settle(s.BeginReturnDelegation(time.Time{}, "c1", sp)); !errors.Is(err, ErrNoDelegation) {
		t.Fatalf("double return err = %v", err)
	}
}

func TestClientGoneReclaimsOrphans(t *testing.T) {
	s := newStore(t)
	a := mustCreate(t, s, RootID, "f", TypeFile)
	free0 := s.cfg.AGs.FreeBytes()
	// Uncommitted layout-get allocation.
	if _, err := s.AllocLayout("c1", a.ID, 0, 8192); err != nil {
		t.Fatal(err)
	}
	// Delegation with one committed extent.
	sp, err := settled(s.BeginDelegate(time.Time{}, "c1", 1<<20))
	if err != nil {
		t.Fatal(err)
	}
	ext := Extent{FileOff: 8192, Len: 4096, Dev: uint32(sp.Dev), VolOff: sp.Off}
	if err := s.Commit("c1", a.ID, []Extent{ext}, 12288, time.Now()); err != nil {
		t.Fatal(err)
	}
	orphaned := s.ClientGone("c1")
	if orphaned != 8192+(1<<20)-4096 {
		t.Fatalf("orphan bytes = %d", orphaned)
	}
	if got := s.cfg.AGs.FreeBytes(); got != free0-4096 {
		t.Fatalf("free = %d, want %d", got, free0-4096)
	}
	// The committed extent survives; the uncommitted one is gone.
	if exts := extentsOf(s, a.ID, 0, 1<<20); len(exts) != 1 || exts[0].State != StateCommitted {
		t.Fatalf("extents after GC = %+v", exts)
	}
	if s.Delegations("c1") != 0 {
		t.Fatal("delegation survived ClientGone")
	}
}

func TestIvalHelpers(t *testing.T) {
	var l []ival
	l = addIval(l, 10, 20)
	l = addIval(l, 30, 40)
	l = addIval(l, 20, 30) // bridges
	if len(l) != 1 || l[0] != (ival{10, 40}) {
		t.Fatalf("addIval = %+v", l)
	}
	g := gaps(0, 50, l)
	if len(g) != 2 || g[0] != (ival{0, 10}) || g[1] != (ival{40, 50}) {
		t.Fatalf("gaps = %+v", g)
	}
	if g := gaps(10, 40, l); len(g) != 0 {
		t.Fatalf("full coverage gaps = %+v", g)
	}
	if g := gaps(0, 5, nil); len(g) != 1 || g[0] != (ival{0, 5}) {
		t.Fatalf("empty-used gaps = %+v", g)
	}
}

// ---------------------------------------------------------------------------
// Recovery

// journaledStore builds a store backed by a journal on a real (zero-latency)
// metadata device, plus the pieces needed to recover it later.
func journaledStore(t *testing.T) (*Store, *blockdev.Device, func() *alloc.AGSet) {
	t.Helper()
	dev := newMetaDev(t)
	mkAGs := func() *alloc.AGSet { return alloc.NewUniformAGSet(0, 64<<20, 4) }
	j := NewJournal(dev, 0, 32<<20)
	s := NewStore(Config{AGs: mkAGs(), Journal: j, Clock: clock.Real(1)})
	return s, dev, mkAGs
}

func recoverStore(t *testing.T, dev *blockdev.Device, mkAGs func() *alloc.AGSet) (*Store, RecoveryStats) {
	t.Helper()
	j := NewJournal(dev, 0, 32<<20)
	s, st, err := Recover(Config{AGs: mkAGs(), Journal: j, Clock: clock.Real(1)})
	if err != nil {
		t.Fatal(err)
	}
	return s, st
}

func TestRecoverNamespace(t *testing.T) {
	s, dev, mkAGs := journaledStore(t)
	dir := mustCreate(t, s, RootID, "docs", TypeDir)
	mustCreate(t, s, dir.ID, "a.txt", TypeFile)
	mustCreate(t, s, RootID, "b.txt", TypeFile)
	if err := s.Remove(RootID, "b.txt"); err != nil {
		t.Fatal(err)
	}

	s2, st := recoverStore(t, dev, mkAGs)
	if st.Records != 4 {
		t.Fatalf("records = %d", st.Records)
	}
	if _, err := s2.Lookup(RootID, "docs"); err != nil {
		t.Fatal(err)
	}
	d, _ := s2.Lookup(RootID, "docs")
	if _, err := s2.Lookup(d.ID, "a.txt"); err != nil {
		t.Fatal(err)
	}
	if _, err := s2.Lookup(RootID, "b.txt"); !errors.Is(err, ErrNotFound) {
		t.Fatal("removed file resurrected")
	}
	// New creates must not collide with replayed IDs.
	n := mustCreate(t, s2, RootID, "new", TypeFile)
	if n.ID <= d.ID {
		t.Fatalf("id sequence regressed: %d <= %d", n.ID, d.ID)
	}
}

func TestRecoverCommittedExtentsSurvive(t *testing.T) {
	s, dev, mkAGs := journaledStore(t)
	a := mustCreate(t, s, RootID, "f", TypeFile)
	lay, err := s.AllocLayout("c1", a.ID, 0, 8192)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Commit("c1", a.ID, lay.Extents, 8192, time.Unix(500, 0).UTC()); err != nil {
		t.Fatal(err)
	}

	s2, _ := recoverStore(t, dev, mkAGs)
	attr, err := s2.Lookup(RootID, "f")
	if err != nil {
		t.Fatal(err)
	}
	if attr.Size != 8192 {
		t.Fatalf("size = %d", attr.Size)
	}
	lay2, err := s2.GetLayout(attr.ID, 0, 8192)
	if err != nil {
		t.Fatal(err)
	}
	if len(lay2.Extents) != len(lay.Extents) {
		t.Fatalf("extents lost: %+v", lay2.Extents)
	}
	// The recovered AG set must account the committed space as in-use:
	// allocating must never hand it out again.
	if s2.cfg.AGs.FreeBytes() >= 64<<20 {
		t.Fatal("committed space not reserved after recovery")
	}
}

func TestRecoverGCsOrphans(t *testing.T) {
	s, dev, mkAGs := journaledStore(t)
	a := mustCreate(t, s, RootID, "f", TypeFile)
	// Allocation without commit: orphan space after crash.
	if _, err := s.AllocLayout("c1", a.ID, 0, 8192); err != nil {
		t.Fatal(err)
	}
	// Delegation never committed into: fully orphan.
	if _, err := settled(s.BeginDelegate(time.Time{}, "c2", 1<<20)); err != nil {
		t.Fatal(err)
	}

	s2, st := recoverStore(t, dev, mkAGs)
	if st.OrphanBytes != 8192+1<<20 {
		t.Fatalf("orphan bytes = %d", st.OrphanBytes)
	}
	if st.Delegations != 1 {
		t.Fatalf("delegations GC'd = %d", st.Delegations)
	}
	if got := s2.cfg.AGs.FreeBytes(); got != 64<<20 {
		t.Fatalf("free after GC = %d, want all", got)
	}
	// File exists but has no extents: the orphan data is unreachable.
	if exts := extentsOf(s2, a.ID, 0, 1<<20); len(exts) != 0 {
		t.Fatalf("orphan extents left: %+v", exts)
	}
}

func TestRecoverDelegationUsedSpansSurvive(t *testing.T) {
	s, dev, mkAGs := journaledStore(t)
	a := mustCreate(t, s, RootID, "f", TypeFile)
	sp, err := settled(s.BeginDelegate(time.Time{}, "c1", 1<<20))
	if err != nil {
		t.Fatal(err)
	}
	ext := Extent{FileOff: 0, Len: 4096, Dev: uint32(sp.Dev), VolOff: sp.Off + 4096}
	if err := s.Commit("c1", a.ID, []Extent{ext}, 4096, time.Now().UTC()); err != nil {
		t.Fatal(err)
	}

	s2, st := recoverStore(t, dev, mkAGs)
	// Orphan = the chunk minus the committed 4 KiB.
	if st.OrphanBytes != 1<<20-4096 {
		t.Fatalf("orphan bytes = %d", st.OrphanBytes)
	}
	lay, _ := s2.GetLayout(2, 0, 1<<20)
	if len(lay.Extents) != 1 || lay.Extents[0].VolOff != sp.Off+4096 {
		t.Fatalf("committed delegation extent lost: %+v", lay.Extents)
	}
}

func TestRecoverRequiresJournal(t *testing.T) {
	if _, _, err := Recover(Config{AGs: alloc.NewUniformAGSet(0, 1<<20, 1)}); err == nil {
		t.Fatal("Recover without journal succeeded")
	}
}

func TestCheckConsistent(t *testing.T) {
	s := newStore(t)
	a := mustCreate(t, s, RootID, "f", TypeFile)
	lay, _ := s.AllocLayout("c1", a.ID, 0, 4096)
	if err := s.Commit("c1", a.ID, lay.Extents, 4096, time.Now()); err != nil {
		t.Fatal(err)
	}
	// Oracle says nothing is durable: the committed extent is a violation.
	bad := s.CheckConsistent(func(dev int, off, n int64) bool { return false })
	if len(bad) != 1 {
		t.Fatalf("violations = %+v", bad)
	}
	// Oracle says everything is durable: clean.
	if bad := s.CheckConsistent(func(dev int, off, n int64) bool { return true }); len(bad) != 0 {
		t.Fatalf("false violations = %+v", bad)
	}
}

func TestRemoveIval(t *testing.T) {
	base := []ival{{10, 20}, {30, 40}}
	cases := []struct {
		off, end int64
		want     []ival
	}{
		{0, 5, []ival{{10, 20}, {30, 40}}},             // outside
		{10, 20, []ival{{30, 40}}},                     // exact first
		{12, 18, []ival{{10, 12}, {18, 20}, {30, 40}}}, // split
		{15, 35, []ival{{10, 15}, {35, 40}}},           // spans gap
		{0, 50, nil},                                   // everything
		{20, 30, []ival{{10, 20}, {30, 40}}},           // exactly the gap
	}
	for _, c := range cases {
		in := append([]ival(nil), base...)
		got := removeIval(in, c.off, c.end)
		if len(got) != len(c.want) {
			t.Fatalf("remove [%d,%d): got %v want %v", c.off, c.end, got, c.want)
		}
		for i := range c.want {
			if got[i] != c.want[i] {
				t.Fatalf("remove [%d,%d): got %v want %v", c.off, c.end, got, c.want)
			}
		}
	}
	if got := removeIval(base, 5, 5); len(got) != 2 {
		t.Fatalf("empty remove changed list: %v", got)
	}
}

// TestRemoveInsideDelegationReclaimsOnReturn is the regression test for the
// space leak Fsck caught: a removed file's delegation-carved extents must be
// reclaimable when the delegation is returned.
func TestRemoveInsideDelegationReclaimsOnReturn(t *testing.T) {
	s := newStore(t)
	free0 := s.cfg.AGs.FreeBytes()
	sp, err := settled(s.BeginDelegate(time.Time{}, "c1", 1<<20))
	if err != nil {
		t.Fatal(err)
	}
	a := mustCreate(t, s, RootID, "f", TypeFile)
	ext := Extent{FileOff: 0, Len: 4096, Dev: uint32(sp.Dev), VolOff: sp.Off}
	if err := s.Commit("c1", a.ID, []Extent{ext}, 4096, time.Now().UTC()); err != nil {
		t.Fatal(err)
	}
	if err := s.Remove(RootID, "f"); err != nil {
		t.Fatal(err)
	}
	if err := settle(s.BeginReturnDelegation(time.Time{}, "c1", sp)); err != nil {
		t.Fatal(err)
	}
	if got := s.cfg.AGs.FreeBytes(); got != free0 {
		t.Fatalf("space leaked: free %d, want %d", got, free0)
	}
}

func TestStoreRename(t *testing.T) {
	s := newStore(t)
	dir := mustCreate(t, s, RootID, "d", TypeDir)
	a := mustCreate(t, s, dir.ID, "f", TypeFile)
	if err := settle(s.BeginRename(time.Time{}, "", dir.ID, "f", RootID, "g")); err != nil {
		t.Fatal(err)
	}
	got, err := s.Lookup(RootID, "g")
	if err != nil || got.ID != a.ID {
		t.Fatalf("lookup after rename = %+v, %v", got, err)
	}
	if _, err := s.Lookup(dir.ID, "f"); !errors.Is(err, ErrNotFound) {
		t.Fatal("old entry survived")
	}
	// Errors.
	if err := settle(s.BeginRename(time.Time{}, "", RootID, "ghost", RootID, "x")); !errors.Is(err, ErrNotFound) {
		t.Fatalf("missing src: %v", err)
	}
	mustCreate(t, s, RootID, "taken", TypeFile)
	if err := settle(s.BeginRename(time.Time{}, "", RootID, "g", RootID, "taken")); !errors.Is(err, ErrExists) {
		t.Fatalf("existing dst: %v", err)
	}
	if err := settle(s.BeginRename(time.Time{}, "", RootID, "g", 999, "x")); !errors.Is(err, ErrNotFound) {
		t.Fatalf("missing dst parent: %v", err)
	}
	if err := settle(s.BeginRename(time.Time{}, "", RootID, "g", RootID, "..")); err == nil {
		t.Fatal("bad name accepted")
	}
	// Directory cycle rejection.
	sub := mustCreate(t, s, dir.ID, "sub", TypeDir)
	if err := settle(s.BeginRename(time.Time{}, "", RootID, "d", sub.ID, "inner")); err == nil {
		t.Fatal("directory moved into own subtree")
	}
}

func TestRenameSurvivesRecovery(t *testing.T) {
	s, dev, mkAGs := journaledStore(t)
	a := mustCreate(t, s, RootID, "before", TypeFile)
	lay, _ := s.AllocLayout("c1", a.ID, 0, 4096)
	if err := s.Commit("c1", a.ID, lay.Extents, 4096, time.Now().UTC()); err != nil {
		t.Fatal(err)
	}
	if err := settle(s.BeginRename(time.Time{}, "", RootID, "before", RootID, "after")); err != nil {
		t.Fatal(err)
	}
	s2, _ := recoverStore(t, dev, mkAGs)
	if _, err := s2.Lookup(RootID, "before"); !errors.Is(err, ErrNotFound) {
		t.Fatal("old name resurrected by recovery")
	}
	got, err := s2.Lookup(RootID, "after")
	if err != nil || got.Size != 4096 {
		t.Fatalf("renamed file lost: %+v, %v", got, err)
	}
}
