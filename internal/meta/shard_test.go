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

// TestShardOfPartition checks the partition function: every inode resolves
// to exactly one shard in range, shard counts dividing the stripe count get
// an equal split, and resolution is a pure function of the id.
func TestShardOfPartition(t *testing.T) {
	for _, n := range []int{1, 2, 4, 8} {
		counts := make([]int, n)
		for id := FileID(1); id <= 10_000; id++ {
			s := ShardOf(id, n)
			if s < 0 || s >= n {
				t.Fatalf("ShardOf(%d, %d) = %d out of range", id, n, s)
			}
			if again := ShardOf(id, n); again != s {
				t.Fatalf("ShardOf(%d, %d) unstable: %d then %d", id, n, s, again)
			}
			counts[s]++
		}
		for s, c := range counts {
			if c == 0 {
				t.Fatalf("shards=%d: shard %d owns no inodes", n, s)
			}
		}
	}
}

// TestPlaceShardDeterministic pins placement to (parent, name) alone.
func TestPlaceShardDeterministic(t *testing.T) {
	seen := make([]int, 4)
	for i := 0; i < 64; i++ {
		name := fmt.Sprintf("f%d", i)
		p := PlaceShard(RootID, name, 4)
		if p < 0 || p >= 4 {
			t.Fatalf("PlaceShard out of range: %d", p)
		}
		if again := PlaceShard(RootID, name, 4); again != p {
			t.Fatalf("PlaceShard unstable for %q: %d then %d", name, p, again)
		}
		seen[p]++
	}
	for s, c := range seen {
		if c == 0 {
			t.Fatalf("PlaceShard never targets shard %d", s)
		}
	}
	if PlaceShard(RootID, "x", 1) != 0 {
		t.Fatal("single-shard placement must be 0")
	}
}

// shardCluster is n journaled stores forming one sharded namespace, each
// owning a disjoint slice of the data space.
type shardCluster struct {
	stores []*Store
	devs   []*blockdev.Device
	clk    clock.Clock
}

const shardSpan = int64(16 << 20)

// shardAGs gives shard i its own device index, so the shards' data spaces
// are disjoint by construction.
func shardAGs(i int) *alloc.AGSet {
	return alloc.NewUniformAGSet(alloc.RoundRobin, i, shardSpan, 4)
}

func newShardCluster(t *testing.T, n int) *shardCluster {
	t.Helper()
	clk := clock.Real(1)
	c := &shardCluster{clk: clk}
	for i := 0; i < n; i++ {
		dev := blockdev.New(blockdev.Config{Size: 8 << 20, Model: blockdev.ZeroLatency(), Clock: clk})
		t.Cleanup(func() { dev.Close() })
		st := NewStore(Config{
			AGs: shardAGs(i), Journal: NewJournal(dev, 0, 8<<20), Clock: clk,
			Shard: i, ShardCount: n,
		})
		c.devs = append(c.devs, dev)
		c.stores = append(c.stores, st)
	}
	return c
}

// recoverAll rebuilds every shard from its journal — the all-shards-crashed
// scenario.
func (c *shardCluster) recoverAll(t *testing.T) []*Store {
	t.Helper()
	n := len(c.stores)
	out := make([]*Store, n)
	for i := 0; i < n; i++ {
		rec, _, err := Recover(Config{
			AGs: shardAGs(i), Journal: NewJournal(c.devs[i], 0, 8<<20), Clock: c.clk,
			Shard: i, ShardCount: n,
		})
		if err != nil {
			t.Fatalf("shard %d recovery: %v", i, err)
		}
		out[i] = rec
	}
	return out
}

func fsckAll(t *testing.T, stores []*Store, label string) {
	t.Helper()
	for i, s := range stores {
		if rep := s.Fsck(TotalSpace(s.cfg.AGs)); !rep.OK() {
			t.Fatalf("%s: shard %d %s", label, i, rep)
		}
	}
	if probs := FsckCluster(stores); len(probs) != 0 {
		t.Fatalf("%s: cluster fsck: %v", label, probs)
	}
}

// rootShard returns the shard homing RootID.
func rootShard(stores []*Store) *Store {
	return stores[ShardOf(RootID, len(stores))]
}

// pickForeignShard returns a shard index other than home.
func pickForeignShard(n, home int) int {
	return (home + 1) % n
}

// TestCrossShardCreateRemove drives the full two-phase create then remove of
// a file homed away from its parent, checking visibility at every step.
func TestCrossShardCreateRemove(t *testing.T) {
	c := newShardCluster(t, 2)
	ps := rootShard(c.stores)
	pi, _ := ps.Shard()
	ti := pickForeignShard(2, pi)
	ts := c.stores[ti]

	attr, err := settled(ts.BeginCreateDetached(time.Time{}, RootID, "f", TypeFile))
	if err != nil {
		t.Fatal(err)
	}
	if ShardOf(attr.ID, 2) != ti {
		t.Fatalf("detached inode %d not owned by shard %d", attr.ID, ti)
	}
	if _, err := ps.Lookup(RootID, "f"); err == nil {
		t.Fatal("file visible before LinkRemote")
	}
	if err := settle(ps.BeginLinkRemote(time.Time{}, RootID, "f", attr.ID, TypeFile)); err != nil {
		t.Fatal(err)
	}
	if err := settle(ps.BeginLinkRemote(time.Time{}, RootID, "f", attr.ID, TypeFile)); err != nil {
		t.Fatalf("LinkRemote retry not idempotent: %v", err)
	}
	got, err := ps.Lookup(RootID, "f")
	if err != nil || got.ID != attr.ID {
		t.Fatalf("lookup after link: %+v, %v", got, err)
	}
	if err := settle(ts.BeginNSCommit(time.Time{}, attr.ID, NSCreate)); err != nil {
		t.Fatal(err)
	}
	if err := settle(ts.BeginNSCommit(time.Time{}, attr.ID, NSCreate)); err != nil {
		t.Fatalf("NSCommit retry not idempotent: %v", err)
	}
	// Data lives on the home shard.
	lay, err := ts.AllocLayout("c1", attr.ID, 0, 4096)
	if err != nil {
		t.Fatal(err)
	}
	if err := ts.Commit("c1", attr.ID, lay.Extents, 4096, c.clk.Now()); err != nil {
		t.Fatal(err)
	}
	fsckAll(t, c.stores, "after create")

	// Classic remove on the parent shard must refuse the remote child.
	if err := ps.Remove(RootID, "f"); !errors.Is(err, ErrWrongShard) {
		t.Fatalf("classic remove of remote child: %v, want ErrWrongShard", err)
	}
	// Cross-shard remove: prepare on home, unlink on parent, commit on home.
	if err := settle(ts.BeginNSPrepare(time.Time{}, "", attr.ID, NSRemove, TypeFile, RootID, "f", 0, "")); err != nil {
		t.Fatal(err)
	}
	if err := settle(ps.BeginUnlinkRemote(time.Time{}, RootID, "f", attr.ID)); err != nil {
		t.Fatal(err)
	}
	if err := settle(ps.BeginUnlinkRemote(time.Time{}, RootID, "f", attr.ID)); err != nil {
		t.Fatalf("UnlinkRemote retry not idempotent: %v", err)
	}
	if err := settle(ts.BeginNSCommit(time.Time{}, attr.ID, NSRemove)); err != nil {
		t.Fatal(err)
	}
	if _, err := ps.Lookup(RootID, "f"); err == nil {
		t.Fatal("file visible after remove")
	}
	if _, err := ts.GetAttr(attr.ID); err == nil {
		t.Fatal("inode survives remove commit")
	}
	fsckAll(t, c.stores, "after remove")
	// All space freed.
	if free := ts.cfg.AGs.FreeBytes(); free != shardSpan {
		t.Fatalf("home shard leaked space: free %d, want %d", free, shardSpan)
	}
}

// TestCrossShardRename drives the two-phase rename of a file between
// directories on different shards, including the home shard's edge flips.
func TestCrossShardRename(t *testing.T) {
	c := newShardCluster(t, 4)
	n := 4
	ps := rootShard(c.stores)
	pi, _ := ps.Shard()

	// A destination directory homed on another shard.
	di := pickForeignShard(n, pi)
	ds := c.stores[di]
	dirAttr, err := settled(ds.BeginCreateDetached(time.Time{}, RootID, "d", TypeDir))
	if err != nil {
		t.Fatal(err)
	}
	if err := settle(ps.BeginLinkRemote(time.Time{}, RootID, "d", dirAttr.ID, TypeDir)); err != nil {
		t.Fatal(err)
	}
	if err := settle(ds.BeginNSCommit(time.Time{}, dirAttr.ID, NSCreate)); err != nil {
		t.Fatal(err)
	}

	// A file under root, homed on a third shard.
	hi := pickForeignShard(n, di)
	if hi == pi {
		hi = pickForeignShard(n, hi)
	}
	hs := c.stores[hi]
	f, err := settled(hs.BeginCreateDetached(time.Time{}, RootID, "f", TypeFile))
	if err != nil {
		t.Fatal(err)
	}
	if err := settle(ps.BeginLinkRemote(time.Time{}, RootID, "f", f.ID, TypeFile)); err != nil {
		t.Fatal(err)
	}
	if err := settle(hs.BeginNSCommit(time.Time{}, f.ID, NSCreate)); err != nil {
		t.Fatal(err)
	}
	fsckAll(t, c.stores, "setup")

	// Rename /f → /d/g: src parent shard ps, dst parent shard = ShardOf(d).
	dps := c.stores[ShardOf(dirAttr.ID, n)]
	if err := settle(ps.BeginNSPrepare(time.Time{}, "", f.ID, NSRenameSrc, TypeFile, RootID, "f", 0, "")); err != nil {
		t.Fatal(err)
	}
	if err := settle(dps.BeginNSPrepare(time.Time{}, "", f.ID, NSRenameDst, TypeFile, RootID, "f", dirAttr.ID, "g")); err != nil {
		t.Fatal(err)
	}
	// The reservation blocks a competing create of the same name.
	if _, err := dps.Create(dirAttr.ID, "g", TypeFile); !errors.Is(err, ErrNSConflict) {
		t.Fatalf("create into reserved name: %v, want ErrNSConflict", err)
	}
	if err := settle(ps.BeginNSCommit(time.Time{}, f.ID, NSRenameSrc)); err != nil {
		t.Fatal(err)
	}
	if err := settle(dps.BeginNSCommit(time.Time{}, f.ID, NSRenameDst)); err != nil {
		t.Fatal(err)
	}
	if _, err := ps.Lookup(RootID, "f"); err == nil {
		t.Fatal("source name survives rename")
	}
	got, err := dps.Lookup(dirAttr.ID, "g")
	if err != nil || got.ID != f.ID {
		t.Fatalf("destination lookup: %+v, %v", got, err)
	}
	fsckAll(t, c.stores, "after rename")
}

// TestNSIntentBlocksConflicts pins the serialization rules: one live intent
// per inode, remove intents block inserts into the dying directory, and
// live intents block classic remove/rename and UnlinkRemote.
func TestNSIntentBlocksConflicts(t *testing.T) {
	c := newShardCluster(t, 2)
	ps := rootShard(c.stores)
	pi, _ := ps.Shard()
	ts := c.stores[pickForeignShard(2, pi)]

	// A remote-homed empty dir under root.
	d, err := settled(ts.BeginCreateDetached(time.Time{}, RootID, "d", TypeDir))
	if err != nil {
		t.Fatal(err)
	}
	if err := settle(ps.BeginLinkRemote(time.Time{}, RootID, "d", d.ID, TypeDir)); err != nil {
		t.Fatal(err)
	}
	if err := settle(ts.BeginNSCommit(time.Time{}, d.ID, NSCreate)); err != nil {
		t.Fatal(err)
	}

	// Remove intent on the dir blocks creates into it (dir's dirents are on
	// its own home shard).
	if err := settle(ts.BeginNSPrepare(time.Time{}, "", d.ID, NSRemove, TypeDir, RootID, "d", 0, "")); err != nil {
		t.Fatal(err)
	}
	if _, err := ts.Create(d.ID, "child", TypeFile); !errors.Is(err, ErrNSConflict) {
		t.Fatalf("create into removing dir: %v, want ErrNSConflict", err)
	}
	if _, err := settled(ts.BeginCreateDetached(time.Time{}, d.ID, "x", TypeFile)); err != nil {
		// CreateDetached lands on the child's shard and cannot see the
		// remove intent — only LinkRemote on the dir's shard can.
		t.Fatal(err)
	}
	// A second intent on the same inode conflicts; an identical retry is
	// idempotent.
	if err := settle(ts.BeginNSPrepare(time.Time{}, "", d.ID, NSRemove, TypeDir, RootID, "d", 0, "")); err != nil {
		t.Fatalf("identical NSPrepare retry: %v", err)
	}
	if err := settle(ts.BeginNSPrepare(time.Time{}, "", d.ID, NSRemove, TypeDir, RootID, "other", 0, "")); !errors.Is(err, ErrNSConflict) {
		t.Fatalf("conflicting NSPrepare: %v, want ErrNSConflict", err)
	}
	// UnlinkRemote of an inode under an intent on this shard is blocked.
	if err := settle(ps.BeginNSPrepare(time.Time{}, "", d.ID, NSRenameSrc, TypeDir, RootID, "d", 0, "")); err != nil {
		t.Fatal(err)
	}
	if err := settle(ps.BeginUnlinkRemote(time.Time{}, RootID, "d", d.ID)); !errors.Is(err, ErrNSConflict) {
		t.Fatalf("unlink under rename intent: %v, want ErrNSConflict", err)
	}
	if err := settle(ps.BeginNSAbort(time.Time{}, d.ID, NSRenameSrc)); err != nil {
		t.Fatal(err)
	}
	// Now the remove can commit.
	if err := settle(ps.BeginUnlinkRemote(time.Time{}, RootID, "d", d.ID)); err != nil {
		t.Fatal(err)
	}
	if err := settle(ts.BeginNSCommit(time.Time{}, d.ID, NSRemove)); err != nil {
		t.Fatal(err)
	}
	// The leaked detached create under the dead dir resolves to an abort.
	if err := ResolveNSIntents(c.stores); err != nil {
		t.Fatal(err)
	}
	fsckAll(t, c.stores, "after resolve")
}

// crossRenameTo runs the rename protocol up to a crash point:
//
//	0: src intent published only
//	1: both intents published
//	2: src committed (dirent deleted), dst intent live
//	3: fully committed
func crossRenameTo(t *testing.T, stores []*Store, file FileID, sp, dp *Store, dstDir FileID, stage int) {
	t.Helper()
	if err := settle(sp.BeginNSPrepare(time.Time{}, "", file, NSRenameSrc, TypeFile, RootID, "f", 0, "")); err != nil {
		t.Fatal(err)
	}
	if stage < 1 {
		return
	}
	if err := settle(dp.BeginNSPrepare(time.Time{}, "", file, NSRenameDst, TypeFile, RootID, "f", dstDir, "g")); err != nil {
		t.Fatal(err)
	}
	if stage < 2 {
		return
	}
	if err := settle(sp.BeginNSCommit(time.Time{}, file, NSRenameSrc)); err != nil {
		t.Fatal(err)
	}
	if stage < 3 {
		return
	}
	if err := settle(dp.BeginNSCommit(time.Time{}, file, NSRenameDst)); err != nil {
		t.Fatal(err)
	}
}

// TestCrossShardRenameCrashMatrix enumerates every crash point of the
// two-phase rename — intents on src only, on both, and the window between
// the two commits — crashes *all* shards there, recovers them from their
// journals, resolves, and proves the namespace converged to exactly one of
// the two names: the old one for crashes before the source-dirent delete
// (the commit point), the new one after. Never both, never neither.
func TestCrossShardRenameCrashMatrix(t *testing.T) {
	for stage := 0; stage <= 3; stage++ {
		wantNew := stage >= 2
		t.Run(fmt.Sprintf("stage=%d", stage), func(t *testing.T) {
			c := newShardCluster(t, 4)
			n := 4
			ps := rootShard(c.stores)
			pi, _ := ps.Shard()

			// Dst dir homed off the root shard; file homed off both.
			di := pickForeignShard(n, pi)
			ds := c.stores[di]
			dir, err := settled(ds.BeginCreateDetached(time.Time{}, RootID, "d", TypeDir))
			if err != nil {
				t.Fatal(err)
			}
			if err := settle(ps.BeginLinkRemote(time.Time{}, RootID, "d", dir.ID, TypeDir)); err != nil {
				t.Fatal(err)
			}
			if err := settle(ds.BeginNSCommit(time.Time{}, dir.ID, NSCreate)); err != nil {
				t.Fatal(err)
			}
			hi := pickForeignShard(n, di)
			if hi == pi {
				hi = pickForeignShard(n, hi)
			}
			hs := c.stores[hi]
			f, err := settled(hs.BeginCreateDetached(time.Time{}, RootID, "f", TypeFile))
			if err != nil {
				t.Fatal(err)
			}
			if err := settle(ps.BeginLinkRemote(time.Time{}, RootID, "f", f.ID, TypeFile)); err != nil {
				t.Fatal(err)
			}
			if err := settle(hs.BeginNSCommit(time.Time{}, f.ID, NSCreate)); err != nil {
				t.Fatal(err)
			}
			lay, err := hs.AllocLayout("c1", f.ID, 0, 4096)
			if err != nil {
				t.Fatal(err)
			}
			if err := hs.Commit("c1", f.ID, lay.Extents, 4096, c.clk.Now()); err != nil {
				t.Fatal(err)
			}

			dps := c.stores[ShardOf(dir.ID, n)]
			crossRenameTo(t, c.stores, f.ID, ps, dps, dir.ID, stage)

			// Crash every shard, recover from the journals, resolve.
			rec := c.recoverAll(t)
			if err := ResolveNSIntents(rec); err != nil {
				t.Fatal(err)
			}

			rps := rootShard(rec)
			rdps := rec[ShardOf(dir.ID, n)]
			_, errOld := rps.Lookup(RootID, "f")
			gotNew, errNew := rdps.Lookup(dir.ID, "g")
			switch {
			case wantNew && (errNew != nil || gotNew.ID != f.ID):
				t.Fatalf("stage %d: new name missing after recovery: %v", stage, errNew)
			case wantNew && errOld == nil:
				t.Fatal("both names visible after recovery")
			case !wantNew && errOld != nil:
				t.Fatalf("stage %d: old name missing after recovery: %v", stage, errOld)
			case !wantNew && errNew == nil:
				t.Fatal("rename rolled forward before its commit point")
			}
			// The file survived with its data either way.
			rhs := rec[hi]
			if attr, err := rhs.GetAttr(f.ID); err != nil || attr.Size != 4096 {
				t.Fatalf("stage %d: file lost: %+v, %v", stage, attr, err)
			}
			fsckAll(t, rec, fmt.Sprintf("stage %d", stage))
		})
	}
}

// TestCrossShardCreateRemoveCrashPoints does the same for create and remove:
// a crash before the commit point (the dirent insert/delete) rolls back, one
// after rolls forward — and an aborted create releases every byte it held.
func TestCrossShardCreateRemoveCrashPoints(t *testing.T) {
	run := func(t *testing.T, linked bool) {
		c := newShardCluster(t, 2)
		ps := rootShard(c.stores)
		pi, _ := ps.Shard()
		ts := c.stores[pickForeignShard(2, pi)]
		attr, err := settled(ts.BeginCreateDetached(time.Time{}, RootID, "f", TypeFile))
		if err != nil {
			t.Fatal(err)
		}
		lay, err := ts.AllocLayout("c1", attr.ID, 0, 4096)
		if err != nil {
			t.Fatal(err)
		}
		if err := ts.Commit("c1", attr.ID, lay.Extents, 4096, c.clk.Now()); err != nil {
			t.Fatal(err)
		}
		if linked {
			if err := settle(ps.BeginLinkRemote(time.Time{}, RootID, "f", attr.ID, TypeFile)); err != nil {
				t.Fatal(err)
			}
		}
		rec := c.recoverAll(t)
		if err := ResolveNSIntents(rec); err != nil {
			t.Fatal(err)
		}
		rts := rec[pickForeignShard(2, pi)]
		if _, err := rootShard(rec).Lookup(RootID, "f"); (err == nil) != linked {
			t.Fatalf("linked=%v but lookup err=%v", linked, err)
		}
		if _, err := rts.GetAttr(attr.ID); (err == nil) != linked {
			t.Fatalf("linked=%v but inode err=%v", linked, err)
		}
		if !linked {
			if free := rts.cfg.AGs.FreeBytes(); free != shardSpan {
				t.Fatalf("aborted create leaked space: free %d, want %d", free, shardSpan)
			}
		}
		fsckAll(t, rec, "create")
	}
	t.Run("create-before-link", func(t *testing.T) { run(t, false) })
	t.Run("create-after-link", func(t *testing.T) { run(t, true) })

	runRemove := func(t *testing.T, unlinked bool) {
		c := newShardCluster(t, 2)
		ps := rootShard(c.stores)
		pi, _ := ps.Shard()
		ts := c.stores[pickForeignShard(2, pi)]
		attr, err := settled(ts.BeginCreateDetached(time.Time{}, RootID, "f", TypeFile))
		if err != nil {
			t.Fatal(err)
		}
		if err := settle(ps.BeginLinkRemote(time.Time{}, RootID, "f", attr.ID, TypeFile)); err != nil {
			t.Fatal(err)
		}
		if err := settle(ts.BeginNSCommit(time.Time{}, attr.ID, NSCreate)); err != nil {
			t.Fatal(err)
		}
		if err := settle(ts.BeginNSPrepare(time.Time{}, "", attr.ID, NSRemove, TypeFile, RootID, "f", 0, "")); err != nil {
			t.Fatal(err)
		}
		if unlinked {
			if err := settle(ps.BeginUnlinkRemote(time.Time{}, RootID, "f", attr.ID)); err != nil {
				t.Fatal(err)
			}
		}
		rec := c.recoverAll(t)
		if err := ResolveNSIntents(rec); err != nil {
			t.Fatal(err)
		}
		rts := rec[pickForeignShard(2, pi)]
		if _, err := rootShard(rec).Lookup(RootID, "f"); (err == nil) == unlinked {
			t.Fatalf("unlinked=%v but lookup err=%v", unlinked, err)
		}
		if _, err := rts.GetAttr(attr.ID); (err == nil) == unlinked {
			t.Fatalf("unlinked=%v but inode err=%v", unlinked, err)
		}
		fsckAll(t, rec, "remove")
	}
	t.Run("remove-before-unlink", func(t *testing.T) { runRemove(t, false) })
	t.Run("remove-after-unlink", func(t *testing.T) { runRemove(t, true) })
}

// TestShardedSnapshotRoundTrip replays a sharded store's snapshot stream
// into a fresh store and checks the cross-shard edges survive, including a
// live intent.
func TestShardedSnapshotRoundTrip(t *testing.T) {
	c := newShardCluster(t, 2)
	ps := rootShard(c.stores)
	pi, _ := ps.Shard()
	ti := pickForeignShard(2, pi)
	ts := c.stores[ti]

	// Graduated cross-shard file with data, plus a still-detached one.
	f, err := settled(ts.BeginCreateDetached(time.Time{}, RootID, "f", TypeFile))
	if err != nil {
		t.Fatal(err)
	}
	if err := settle(ps.BeginLinkRemote(time.Time{}, RootID, "f", f.ID, TypeFile)); err != nil {
		t.Fatal(err)
	}
	if err := settle(ts.BeginNSCommit(time.Time{}, f.ID, NSCreate)); err != nil {
		t.Fatal(err)
	}
	lay, err := ts.AllocLayout("c1", f.ID, 0, 4096)
	if err != nil {
		t.Fatal(err)
	}
	if err := ts.Commit("c1", f.ID, lay.Extents, 4096, c.clk.Now()); err != nil {
		t.Fatal(err)
	}
	g, err := settled(ts.BeginCreateDetached(time.Time{}, RootID, "g", TypeFile))
	if err != nil {
		t.Fatal(err)
	}

	for i, src := range []*Store{ps, ts} {
		idx := []int{pi, ti}[i]
		fresh := NewStore(Config{AGs: shardAGs(idx), Clock: c.clk, Shard: idx, ShardCount: 2})
		for _, rec := range src.Snapshot() {
			if rec.Type == RecAlloc || rec.Type == RecDelegate {
				for _, e := range rec.Extents {
					if err := fresh.cfg.AGs.ReserveSpan(alloc.Span{Dev: int(e.Dev), Off: e.VolOff, Len: e.Len}); err == nil {
						_ = fresh.cfg.AGs.FreeSpan(alloc.Span{Dev: int(e.Dev), Off: e.VolOff, Len: e.Len})
					}
				}
			}
			if err := fresh.applyRecord(rec); err != nil {
				t.Fatalf("shard %d: replay %v: %v", idx, rec.Type, err)
			}
		}
		if i == 1 {
			if attr, err := fresh.GetAttr(f.ID); err != nil || attr.Size != 4096 {
				t.Fatalf("linked inode lost in snapshot: %+v, %v", attr, err)
			}
			if _, err := fresh.GetAttr(g.ID); err != nil {
				t.Fatalf("detached inode lost in snapshot: %v", err)
			}
			if got := len(fresh.NSIntents()); got != 1 {
				t.Fatalf("snapshot carried %d intents, want 1", got)
			}
		} else {
			if got, err := fresh.Lookup(RootID, "f"); err != nil || got.ID != f.ID {
				t.Fatalf("remote dirent lost in snapshot: %+v, %v", got, err)
			}
		}
	}
}

// TestCrossShardRemoveVsRenameRace pins the fix for the remove/rename race:
// the NSRemove intent lives on the child's *home* shard, so a classic rename
// on the parent's shard — which checks only its own intent table — can move
// the dirent between NSPrepare and UnlinkRemote. The commit point must then
// refuse (it never unlinked that entry) so the client aborts; treating the
// absence as "my unlink already committed" would let NSCommit free an inode
// whose relocated dirent is still live.
func TestCrossShardRemoveVsRenameRace(t *testing.T) {
	c := newShardCluster(t, 2)
	ps := rootShard(c.stores)
	pi, _ := ps.Shard()
	ts := c.stores[pickForeignShard(2, pi)]

	f, err := settled(ts.BeginCreateDetached(time.Time{}, RootID, "f", TypeFile))
	if err != nil {
		t.Fatal(err)
	}
	if err := settle(ps.BeginLinkRemote(time.Time{}, RootID, "f", f.ID, TypeFile)); err != nil {
		t.Fatal(err)
	}
	if err := settle(ts.BeginNSCommit(time.Time{}, f.ID, NSCreate)); err != nil {
		t.Fatal(err)
	}
	lay, err := ts.AllocLayout("c1", f.ID, 0, 4096)
	if err != nil {
		t.Fatal(err)
	}
	if err := ts.Commit("c1", f.ID, lay.Extents, 4096, c.clk.Now()); err != nil {
		t.Fatal(err)
	}

	// Remove prepared on the home shard; the parent shard cannot see it.
	if err := settle(ts.BeginNSPrepare(time.Time{}, "", f.ID, NSRemove, TypeFile, RootID, "f", 0, "")); err != nil {
		t.Fatal(err)
	}
	// The concurrent rename slips in on the parent shard.
	if err := settle(ps.BeginRename(time.Time{}, "", RootID, "f", RootID, "g")); err != nil {
		t.Fatal(err)
	}
	// The remove's commit point finds the entry gone — but it never
	// executed here, so it must refuse rather than claim success.
	if err := settle(ps.BeginUnlinkRemote(time.Time{}, RootID, "f", f.ID)); !errors.Is(err, ErrNotFound) {
		t.Fatalf("UnlinkRemote after rename: %v, want ErrNotFound", err)
	}
	// The client aborts; the file survives under its new name with data.
	if err := settle(ts.BeginNSAbort(time.Time{}, f.ID, NSRemove)); err != nil {
		t.Fatal(err)
	}
	got, err := ps.Lookup(RootID, "g")
	if err != nil || got.ID != f.ID {
		t.Fatalf("renamed entry lost: %+v, %v", got, err)
	}
	if attr, err := ts.GetAttr(f.ID); err != nil || attr.Size != 4096 {
		t.Fatalf("inode freed under a live dirent: %+v, %v", attr, err)
	}
	fsckAll(t, c.stores, "after aborted remove")
}

// TestUnlinkRemoteExactlyOnce pins the commit-point proof: an entry this
// shard never held is refused with ErrNotFound, an executed unlink stays
// acknowledged across retries — including retries landing after a crash and
// journal recovery of every shard.
func TestUnlinkRemoteExactlyOnce(t *testing.T) {
	c := newShardCluster(t, 2)
	ps := rootShard(c.stores)
	pi, _ := ps.Shard()
	ti := pickForeignShard(2, pi)
	ts := c.stores[ti]

	f, err := settled(ts.BeginCreateDetached(time.Time{}, RootID, "f", TypeFile))
	if err != nil {
		t.Fatal(err)
	}
	if err := settle(ps.BeginLinkRemote(time.Time{}, RootID, "f", f.ID, TypeFile)); err != nil {
		t.Fatal(err)
	}
	if err := settle(ts.BeginNSCommit(time.Time{}, f.ID, NSCreate)); err != nil {
		t.Fatal(err)
	}
	// A remove of an entry that was never present here must refuse.
	if err := settle(ps.BeginUnlinkRemote(time.Time{}, RootID, "ghost", f.ID+64)); !errors.Is(err, ErrNotFound) {
		t.Fatalf("unlink of foreign entry: %v, want ErrNotFound", err)
	}
	if err := settle(ts.BeginNSPrepare(time.Time{}, "", f.ID, NSRemove, TypeFile, RootID, "f", 0, "")); err != nil {
		t.Fatal(err)
	}
	if err := settle(ps.BeginUnlinkRemote(time.Time{}, RootID, "f", f.ID)); err != nil {
		t.Fatal(err)
	}
	// Crash every shard before the client's retry and commit land: the
	// journal must rebuild the executed-commit-point marker.
	rec := c.recoverAll(t)
	rps, rts := rootShard(rec), rec[ti]
	if err := settle(rps.BeginUnlinkRemote(time.Time{}, RootID, "f", f.ID)); err != nil {
		t.Fatalf("retry after recovery: %v", err)
	}
	if err := settle(rts.BeginNSCommit(time.Time{}, f.ID, NSRemove)); err != nil {
		t.Fatal(err)
	}
	if _, err := rts.GetAttr(f.ID); err == nil {
		t.Fatal("inode survives committed remove")
	}
	fsckAll(t, rec, "after recovered remove")
}

// TestLinkRemoteRetryDoesNotForkEntry pins the create-side mirror of the
// race: once LinkRemote executed, a delayed retry must not re-insert the
// dirent after a rename moved it — that would leave two entries referencing
// one inode.
func TestLinkRemoteRetryDoesNotForkEntry(t *testing.T) {
	c := newShardCluster(t, 2)
	ps := rootShard(c.stores)
	pi, _ := ps.Shard()
	ts := c.stores[pickForeignShard(2, pi)]

	f, err := settled(ts.BeginCreateDetached(time.Time{}, RootID, "f", TypeFile))
	if err != nil {
		t.Fatal(err)
	}
	if err := settle(ps.BeginLinkRemote(time.Time{}, RootID, "f", f.ID, TypeFile)); err != nil {
		t.Fatal(err)
	}
	if err := settle(ts.BeginNSCommit(time.Time{}, f.ID, NSCreate)); err != nil {
		t.Fatal(err)
	}
	if err := settle(ps.BeginRename(time.Time{}, "", RootID, "f", RootID, "g")); err != nil {
		t.Fatal(err)
	}
	if err := settle(ps.BeginLinkRemote(time.Time{}, RootID, "f", f.ID, TypeFile)); err != nil {
		t.Fatalf("link retry after rename: %v", err)
	}
	if _, err := ps.Lookup(RootID, "f"); err == nil {
		t.Fatal("link retry re-inserted a moved dirent")
	}
	fsckAll(t, c.stores, "after link retry")

	// The marker survives recovery too.
	rec := c.recoverAll(t)
	rps := rootShard(rec)
	if err := settle(rps.BeginLinkRemote(time.Time{}, RootID, "f", f.ID, TypeFile)); err != nil {
		t.Fatalf("link retry after recovery: %v", err)
	}
	if _, err := rps.Lookup(RootID, "f"); err == nil {
		t.Fatal("recovered link retry re-inserted a moved dirent")
	}
	fsckAll(t, rec, "after recovered link retry")
}

// TestCommitPointMarkersSurviveSnapshot replays a shard's snapshot stream
// into a fresh store and checks the executed-commit-point markers come along:
// a checkpoint between a commit point and its retry must not reopen the
// rename race.
func TestCommitPointMarkersSurviveSnapshot(t *testing.T) {
	c := newShardCluster(t, 2)
	ps := rootShard(c.stores)
	pi, _ := ps.Shard()
	ts := c.stores[pickForeignShard(2, pi)]

	// f: linked, then unlinked by a cross-shard remove (intent still live
	// on the home shard). g: linked, then moved by a rename.
	f, err := settled(ts.BeginCreateDetached(time.Time{}, RootID, "f", TypeFile))
	if err != nil {
		t.Fatal(err)
	}
	if err := settle(ps.BeginLinkRemote(time.Time{}, RootID, "f", f.ID, TypeFile)); err != nil {
		t.Fatal(err)
	}
	if err := settle(ts.BeginNSCommit(time.Time{}, f.ID, NSCreate)); err != nil {
		t.Fatal(err)
	}
	if err := settle(ts.BeginNSPrepare(time.Time{}, "", f.ID, NSRemove, TypeFile, RootID, "f", 0, "")); err != nil {
		t.Fatal(err)
	}
	if err := settle(ps.BeginUnlinkRemote(time.Time{}, RootID, "f", f.ID)); err != nil {
		t.Fatal(err)
	}
	g, err := settled(ts.BeginCreateDetached(time.Time{}, RootID, "g", TypeFile))
	if err != nil {
		t.Fatal(err)
	}
	if err := settle(ps.BeginLinkRemote(time.Time{}, RootID, "g", g.ID, TypeFile)); err != nil {
		t.Fatal(err)
	}
	if err := settle(ts.BeginNSCommit(time.Time{}, g.ID, NSCreate)); err != nil {
		t.Fatal(err)
	}
	if err := settle(ps.BeginRename(time.Time{}, "", RootID, "g", RootID, "h")); err != nil {
		t.Fatal(err)
	}

	fresh := NewStore(Config{AGs: shardAGs(pi), Clock: c.clk, Shard: pi, ShardCount: 2})
	for _, rec := range ps.Snapshot() {
		if err := fresh.applyRecord(rec); err != nil {
			t.Fatalf("replay %v: %v", rec.Type, err)
		}
	}
	// The executed unlink still reads as executed...
	if err := settle(fresh.BeginUnlinkRemote(time.Time{}, RootID, "f", f.ID)); err != nil {
		t.Fatalf("unlink marker lost in snapshot: %v", err)
	}
	// ...and the executed link does not re-insert behind the rename.
	if err := settle(fresh.BeginLinkRemote(time.Time{}, RootID, "g", g.ID, TypeFile)); err != nil {
		t.Fatalf("link marker lost in snapshot: %v", err)
	}
	if _, err := fresh.Lookup(RootID, "g"); err == nil {
		t.Fatal("snapshot-restored link retry re-inserted a moved dirent")
	}
	if got, err := fresh.Lookup(RootID, "h"); err != nil || got.ID != g.ID {
		t.Fatalf("renamed entry lost in snapshot: %+v, %v", got, err)
	}
}
