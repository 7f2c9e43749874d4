package bench

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"redbud/internal/blockdev"
	"redbud/internal/fsapi"
	"redbud/internal/meta"
	"redbud/internal/netsim"
	"redbud/internal/workload"
)

// delegOptions is lifecycleOptions with a call timeout longer than the
// delegation lease: a mutation that waits out a holder's lease, or a restarted
// MDS's grace period, must not time out under its caller.
func delegOptions(shards int) Options {
	opt := lifecycleOptions(shards)
	opt.Retry.CallTimeout = 10 * meta.DelegTerm
	return opt
}

// gauge reads one client's redbud_client_* value out of the cluster registry.
func gauge(t *testing.T, c *Cluster, name string, client int) int64 {
	t.Helper()
	want := fmt.Sprintf(`client="client-%d"`, client)
	for _, m := range c.Registry.Snapshot().Metrics {
		if m.Name == name && m.Labels == want {
			return m.Value
		}
	}
	t.Fatalf("no %s{%s} in the registry", name, want)
	return 0
}

func rpcsOf(c *Cluster, client int) int64 { return c.Redbud[client].Stats().RPCs }

func mustStat(t *testing.T, m fsapi.FileSystem, path string, size int64) {
	t.Helper()
	info, err := m.Stat(path)
	if err != nil || info.Size != size {
		t.Fatalf("Stat(%s) = %+v, %v; want size %d", path, info, err, size)
	}
}

// TestRestartEndsDelegations: a client learns of an MDS restart on its next
// call that reaches the wire and then holds nothing; until then its lease
// runs out on its own, and the restarted MDS holds every mutation it cannot
// vouch for — here another client's remove of a file the first may still be
// serving from memory — for one lease term after it started serving.
func TestRestartEndsDelegations(t *testing.T) {
	c := Build(SysRedbudDC, delegOptions(1))
	defer c.Close()
	a, b := c.Mounts[0], c.Mounts[1]
	size := int64(len(lifecycleData("/f")))
	for _, path := range []string{"/f", "/g"} {
		if err := writeSynced(a, path); err != nil {
			t.Fatal(err)
		}
	}
	if err := writeSynced(b, "/other"); err != nil {
		t.Fatal(err)
	}
	if got := gauge(t, c, "redbud_client_delegations", 0); got != 2 {
		t.Fatalf("client 0 holds %d delegations, want 2", got)
	}
	rpcs := rpcsOf(c, 0)
	mustStat(t, a, "/f", size)
	if rpcsOf(c, 0) != rpcs {
		t.Fatal("Stat of a delegated file cost an RPC")
	}

	// RestartShard by hand: the new MDS starts its grace period inside
	// ServeShard, so a clock read just before it is no later than that start.
	c.StopShard(0)
	if _, err := c.RecoverShard(0); err != nil {
		t.Fatal(err)
	}
	served := c.Clock.Now()
	if err := c.ServeShard(0); err != nil {
		t.Fatal(err)
	}
	// B reconnects (its Stat reaches the wire: /f is not its file) and
	// removes A's file. The new MDS knows no holder — and waits, because one
	// may exist.
	mustStat(t, b, "/f", size)
	if err := b.Remove("/f"); err != nil {
		t.Fatalf("remove after the restart: %v", err)
	}
	if waited := c.Clock.Since(served); waited < meta.DelegTerm {
		t.Fatalf("a conflicting remove went through %v after the restart, inside the %v grace period", waited, meta.DelegTerm)
	}
	// By now A's lease has run out by itself: it asks, and is told the truth.
	if _, err := a.Stat("/f"); !errors.Is(err, fsapi.ErrNotExist) {
		t.Fatalf("A's Stat of the removed file = %v, want ErrNotExist", err)
	}
	// That call found the dead connection, said hello to incarnation 2 and
	// re-established: everything the dead session held is gone.
	if got := gauge(t, c, "redbud_client_delegations", 0); got != 0 {
		t.Fatalf("client 0 still holds %d delegations of the dead session", got)
	}
	// And the new session grants again.
	mustStat(t, a, "/g", size)
	rpcs = rpcsOf(c, 0)
	mustStat(t, a, "/g", size)
	if rpcsOf(c, 0) != rpcs || gauge(t, c, "redbud_client_delegations", 0) != 1 {
		t.Fatal("the re-established session was not granted /g again")
	}
}

// TestTwoShardRecalls: in a sharded namespace the delegation lives with the
// inode. A file homed on its parent's shard is cached by name and recalled
// there; a file homed elsewhere keeps its name lookup and saves the home
// shard's GetAttr, and the cross-shard remove and rename sagas recall on the
// home shard before they can reach their commit point.
func TestTwoShardRecalls(t *testing.T) {
	c := Build(SysRedbudDC, delegOptions(2))
	defer c.Close()
	a, b := c.Mounts[0], c.Mounts[1]
	rootShard := meta.ShardOf(meta.RootID, 2)
	// name picks a fresh root-level name the placement hash homes on the
	// root's shard (local) or on the other one.
	names := 0
	name := func(local bool) string {
		for ; ; names++ {
			n := fmt.Sprintf("s%d", names)
			if (meta.PlaceShard(meta.RootID, n, 2) == rootShard) == local {
				names++
				return "/" + n
			}
		}
	}
	recalls := func(shard int) int64 { return c.Stores[shard].FileDelegs().Stats().Recalls }
	size := int64(len(lifecycleData("/x")))
	// tell makes A hear what shard has to say: an attribute-bearing reply
	// from it carries the recalls, and A acknowledges.
	probe := [2]string{}
	for s := range probe {
		probe[s] = name(s == rootShard)
		if err := writeSynced(b, probe[s]); err != nil {
			t.Fatal(err)
		}
	}
	tell := func(shard int) {
		t.Helper()
		mustStat(t, a, probe[shard], size)
	}
	waits := func(what string, op func() error, shard int) {
		t.Helper()
		done := make(chan error, 1)
		go func() { done <- op() }()
		select {
		case err := <-done:
			t.Fatalf("%s returned (%v) before the holder had been asked", what, err)
		case <-time.After(20 * time.Millisecond):
		}
		tell(shard)
		select {
		case err := <-done:
			if err != nil {
				t.Fatalf("%s: %v", what, err)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("%s did not return after the holder acknowledged", what)
		}
	}

	// 1. Same shard as the parent: delegated at create, cached by name.
	local := name(true)
	if err := writeSynced(a, local); err != nil {
		t.Fatal(err)
	}
	rpcs := rpcsOf(c, 0)
	mustStat(t, a, local, size)
	if rpcsOf(c, 0) != rpcs {
		t.Fatal("Stat of a file delegated on its parent's shard cost an RPC")
	}
	waits("B's remove of A's local file", func() error { return b.Remove(local) }, rootShard)
	if recalls(rootShard) != 1 || recalls(1-rootShard) != 0 {
		t.Fatalf("recalls per shard = %d / %d, want the one on the home shard %d", recalls(0), recalls(1), rootShard)
	}
	if _, err := a.Stat(local); !errors.Is(err, fsapi.ErrNotExist) {
		t.Fatalf("A's Stat after B's remove = %v", err)
	}

	// 2. Homed on the other shard: the first open is granted the attributes
	// by the home shard's GetAttr; re-opens then cost the name Lookup only.
	remote := name(false)
	if err := writeSynced(a, remote); err != nil {
		t.Fatal(err)
	}
	mustStat(t, a, remote, size) // Lookup + GetAttr, grant
	rpcs = rpcsOf(c, 0)
	mustStat(t, a, remote, size)
	if got := rpcsOf(c, 0) - rpcs; got != 1 {
		t.Fatalf("re-Stat of a remote-homed delegated file cost %d RPCs, want the parent shard's Lookup only", got)
	}
	// The cross-shard remove: prepare on the home shard recalls; the unlink on
	// the parent's shard — the commit point — cannot have happened while it
	// waits, so A still finds the name.
	home := 1 - rootShard
	done := make(chan error, 1)
	go func() { done <- b.Remove(remote) }()
	time.Sleep(20 * time.Millisecond)
	select {
	case err := <-done:
		t.Fatalf("the cross-shard remove returned (%v) with the delegation outstanding", err)
	default:
	}
	if _, err := c.Stores[rootShard].Lookup(meta.RootID, remote[1:]); err != nil {
		t.Fatalf("the dirent is gone while the saga still waits for its recall: %v", err)
	}
	tell(home)
	if err := <-done; err != nil {
		t.Fatalf("cross-shard remove: %v", err)
	}
	if recalls(home) != 1 {
		t.Fatalf("%d recalls on the remote file's home shard, want 1", recalls(home))
	}
	if _, err := a.Stat(remote); !errors.Is(err, fsapi.ErrNotExist) {
		t.Fatalf("A's Stat after the cross-shard remove = %v", err)
	}

	// 3. The cross-shard rename of a name-cached file into a directory whose
	// dirent table lives on the other shard: the source prepare runs on the
	// file's home shard and recalls before the source dirent can go.
	dir := name(false) // a directory homed on the other shard
	if err := b.Mkdir(dir); err != nil {
		t.Fatal(err)
	}
	moved := name(true)
	if err := writeSynced(a, moved); err != nil {
		t.Fatal(err)
	}
	before := recalls(rootShard)
	waits("B's cross-shard rename of A's file", func() error { return b.Rename(moved, dir+"/in") }, rootShard)
	if recalls(rootShard) != before+1 {
		t.Fatalf("the rename saga recalled %d delegations on the home shard, want 1", recalls(rootShard)-before)
	}
	if _, err := a.Stat(moved); !errors.Is(err, fsapi.ErrNotExist) {
		t.Fatalf("A's Stat under the old name = %v", err)
	}
	mustStat(t, a, dir+"/in", size)
}

// TestConflictReaderIsNeverGranted: the conflict-read probe re-opens the
// writer's file in a tight loop. The writer created it and so holds it; the
// reader is never granted, and so no writer commit ever waits for a recall —
// which is why the delegations are exclusive (a shared read delegation here
// would put a recall wait inside every commit).
func TestConflictReaderIsNeverGranted(t *testing.T) {
	opt := TestOptions()
	opt.Clients = 2
	opt.Scale = 1
	opt.Disk = blockdev.FastHDD()
	c := Build(SysRedbudDC, opt)
	defer c.Close()
	spec := scaleBT(workload.DefaultBT(1), 0.02)
	res, err := workload.RunBTConflict(c.Mounts[0], c.Mounts[1], c.Clock, spec)
	if err != nil || res.Blocks == 0 {
		t.Fatalf("conflict run: %d blocks, %v", res.Blocks, err)
	}
	c.Drain()
	if got := gauge(t, c, "redbud_client_delegations", 1); got != 0 {
		t.Fatalf("the reader holds %d delegations", got)
	}
	if got := gauge(t, c, "redbud_client_open_hits_total", 1); got != 0 {
		t.Fatalf("the reader served %d opens from memory", got)
	}
	st := c.Store.FileDelegs().Stats()
	if st.Recalls != 0 || st.Grants != 1 {
		t.Fatalf("MDS delegation stats %+v, want the writer's one grant and no recall", st)
	}
	// Where users look: the cluster view carries the counters.
	var recalls, grants int64 = -1, -1
	for _, m := range c.Collector.Collect().Merged.Metrics {
		switch m.Name {
		case "redbud_mds_deleg_recalls_total":
			recalls = m.Value
		case "redbud_mds_deleg_grants_total":
			grants = m.Value
		}
	}
	if recalls != 0 || grants != 1 {
		t.Fatalf("cluster view: %d grants, %d recalls; want 1 and 0", grants, recalls)
	}
}

// TestDelegationChunksSpreadOverDisks: two space-delegating clients that
// write their first files at once get their first delegated chunks on
// different disks of the array, not on the two halves of one disk while the
// others idle. The link's latency keeps both first delegations ahead of either
// client's standby refill, which a client starts only once its first chunk
// has arrived.
func TestDelegationChunksSpreadOverDisks(t *testing.T) {
	opt := lifecycleOptions(1)
	opt.Clients = 2
	opt.DataDevices = 4
	opt.DelegationChunk = 1 << 20
	opt.Net = netsim.LinkConfig{Latency: 10 * time.Millisecond}
	c := Build(SysRedbudDCSD, opt)
	defer c.Close()
	errs := make(chan error, len(c.Mounts))
	for i, m := range c.Mounts {
		go func() { errs <- writeSynced(m, fmt.Sprintf("/first-%d", i)) }()
	}
	for range c.Mounts {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	// A client's first file is carved from its first chunk.
	devs := map[uint32]int{}
	for i := range c.Mounts {
		attr, err := c.Store.Lookup(meta.RootID, fmt.Sprintf("first-%d", i))
		if err != nil {
			t.Fatal(err)
		}
		lay, err := c.Store.GetLayout(attr.ID, 0, attr.Size)
		if err != nil || len(lay.Extents) == 0 {
			t.Fatalf("layout of client %d's file: %+v, %v", i, lay, err)
		}
		if c.Redbud[i].Stats().LocalAllocs == 0 {
			t.Fatalf("client %d did not write from a delegated chunk", i)
		}
		dev := lay.Extents[0].Dev
		if j, ok := devs[dev]; ok {
			t.Fatalf("clients %d and %d both got their first chunk on dev%d", j, i, dev)
		}
		devs[dev] = i
	}
}
