package chaos

import (
	"flag"
	"fmt"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"redbud/internal/bench"
	"redbud/internal/blockdev"
	"redbud/internal/client"
	"redbud/internal/meta"
	"redbud/internal/netsim"
	"redbud/internal/obs/agg"
	"redbud/internal/proto"
	"redbud/internal/rpc"
	"redbud/internal/workload"
)

// seeds widens the invariant sweep; CI runs `-seeds=100` nightly.
var seeds = flag.Int("seeds", 5, "number of fault-plan seeds the invariant sweep runs")

// invariantConfig is the full fault menu: drops, duplicates, delays,
// reorders, a timed partition, and probabilistic data-device faults.
func invariantConfig(seed int64) Config {
	return Config{
		Seed:    seed,
		Clients: 3,
		Threads: 2,
		Ops:     25,
		Prefill: 2,
		Mode:    client.DelayedCommit,
		Fsync:   true,
		Retry: client.RetryPolicy{
			MaxAttempts: 8,
			BaseDelay:   time.Millisecond,
			MaxDelay:    8 * time.Millisecond,
			CallTimeout: 50 * time.Millisecond,
		},
		Net: netsim.FaultPlan{
			Default: netsim.LinkFaults{
				DropProb:    0.02,
				DupProb:     0.02,
				DelayProb:   0.10,
				DelaySpike:  2 * time.Millisecond,
				ReorderProb: 0.05,
			},
			Partitions: []netsim.Partition{
				{From: "*", To: "mds", Start: 20 * time.Millisecond, End: 35 * time.Millisecond},
			},
		},
		Disk: DiskFaults{ErrProb: 0.02, TornProb: 0.02},
	}
}

// assertClean checks the two paper invariants and every fsck pass: each
// shard's live and recovered image, plus the cross-shard referential checks
// in a sharded run.
func assertClean(t *testing.T, rep *Report) {
	t.Helper()
	if len(rep.Violations) != 0 {
		t.Errorf("ordered-write violations:\n  %s", strings.Join(rep.Violations, "\n  "))
	}
	if len(rep.Inconsistent) != 0 {
		t.Errorf("committed-but-not-durable extents at end of run: %+v", rep.Inconsistent)
	}
	for i, f := range rep.ShardFscks {
		if !f.OK() {
			t.Errorf("live fsck, shard %d: %s", i, f)
		}
	}
	for i, f := range rep.RecoveredShardFscks {
		if !f.OK() {
			t.Errorf("post-recovery fsck, shard %d: %s", i, f)
		}
	}
	if len(rep.ClusterIssues) != 0 {
		t.Errorf("cross-shard fsck: %s", strings.Join(rep.ClusterIssues, "; "))
	}
	if len(rep.RecoveredClusterIssues) != 0 {
		t.Errorf("post-recovery cross-shard fsck: %s", strings.Join(rep.RecoveredClusterIssues, "; "))
	}
}

// TestChaosInvariants sweeps seeded fault plans and asserts that no plan can
// produce an MDS-visible commit of non-durable data, an inconsistent store,
// or an unrecoverable journal. Individual operations may fail — that is the
// fault plan working — but the metadata must never lie.
func TestChaosInvariants(t *testing.T) {
	for s := 0; s < *seeds; s++ {
		seed := int64(s)*7919 + 1
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			t.Parallel()
			rep, err := Run(invariantConfig(seed))
			if err != nil {
				t.Fatal(err)
			}
			assertClean(t, rep)
			var ops int64
			for _, r := range rep.Results {
				ops += r.Ops
			}
			if ops > 0 && rep.OpErrors >= ops {
				t.Errorf("every one of %d ops failed; the fault plan starved the workload", ops)
			}
			t.Logf("ops=%d opErrors=%d netFaults=%+v diskFaults=%d dedupHits=%d",
				ops, rep.OpErrors, rep.Faults, rep.DiskFaults, rep.DedupHits)
		})
	}
}

// TestChaosMDSRestart crash-restarts the MDS twice mid-workload with no
// other faults: clients must redial, observe the incarnation bump, rebuild
// their sessions, and keep making progress — no commit thread may deadlock
// instead of retrying; the recovered store must fsck clean both times and at
// the end. Seed 31415 is the schedule that caught a commit built in one
// session being sent into the next.
func TestChaosMDSRestart(t *testing.T) {
	for _, seed := range []int64{4242, 31415} {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			cfg := invariantConfig(seed)
			cfg.Net = netsim.FaultPlan{}
			cfg.Disk = DiskFaults{}
			cfg.Ops = 40
			cfg.Think = time.Millisecond // stretch the workload across the restarts
			cfg.Restarts = 2
			cfg.RestartEvery = 15 * time.Millisecond
			rep, err := Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if rep.Restarts != 2 {
				t.Fatalf("completed %d restarts, want 2", rep.Restarts)
			}
			assertClean(t, rep)
			var ops int64
			for _, r := range rep.Results {
				ops += r.Ops
			}
			if want := int64(cfg.Clients * cfg.Threads * cfg.Ops); ops != want {
				t.Fatalf("measured %d ops, want %d: a thread died instead of retrying", ops, want)
			}
			if rep.OpErrors >= ops {
				t.Fatalf("all %d ops failed across the restarts; sessions never re-established", ops)
			}
			t.Logf("ops=%d opErrors=%d dedupHits=%d recovery=%+v", ops, rep.OpErrors, rep.DedupHits, rep.Recovery)
		})
	}
}

// TestChaosMDSRestartWriteBehind crash-restarts the MDS while clients have
// write-behind data outstanding: no delegation, so every extending write is
// deferred, and no fsync, so restarts catch files with deferred bytes and
// write-back layout-gets in flight. The goroutine that redials and
// re-establishes the session is then usually a write-back routine itself —
// re-establishment must not wait for write-back (a hang here is the
// regression), the dead session's deferred data is dropped, and nothing the
// MDS committed may be undurable.
func TestChaosMDSRestartWriteBehind(t *testing.T) {
	for s := 0; s < *seeds; s++ {
		seed := int64(s)*104729 + 18464
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			t.Parallel()
			cfg := invariantConfig(seed)
			cfg.Net = netsim.FaultPlan{}
			cfg.Disk = DiskFaults{}
			cfg.Delegation = -1
			cfg.Fsync = false
			cfg.Ops = 40
			cfg.Think = time.Millisecond // stretch the workload across the restarts
			cfg.Restarts = 3
			cfg.RestartEvery = 10 * time.Millisecond
			rep, err := Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if rep.Restarts != 3 {
				t.Fatalf("completed %d restarts, want 3", rep.Restarts)
			}
			assertClean(t, rep)
			var ops int64
			for _, r := range rep.Results {
				ops += r.Ops
			}
			// A restart that lands in a client's (unretried) namespace
			// set-up costs that client its run, so the op count is not
			// exact here; the run returning at all is the no-hang check.
			if ops == 0 || rep.OpErrors >= ops {
				t.Fatalf("%d ops, %d failed: sessions never re-established", ops, rep.OpErrors)
			}
			t.Logf("ops=%d opErrors=%d recovery=%+v", ops, rep.OpErrors, rep.Recovery)
		})
	}
}

// TestChaosDeterminism runs the same seed and fault plan twice and requires
// byte-identical per-thread event logs. The plan is delay-only and retries
// are disabled: delays never change an operation's outcome, so the op
// streams — which do depend on outcomes — must replay exactly.
func TestChaosDeterminism(t *testing.T) {
	eventLog := func() (string, int64) {
		var mu sync.Mutex
		logs := map[int][]string{}
		cfg := Config{
			Seed:    99,
			Clients: 2,
			Threads: 2,
			Ops:     20,
			Prefill: 2,
			Mode:    client.DelayedCommit,
			Fsync:   true,
			// One attempt, no call timeout: nothing scheduler-dependent
			// can change an op's outcome.
			Retry: client.RetryPolicy{MaxAttempts: 1},
			Net: netsim.FaultPlan{
				Default: netsim.LinkFaults{DelayProb: 0.3, DelaySpike: 300 * time.Microsecond},
			},
			OnOp: func(clientID, tid int, kind workload.OpKind, path string, n int64) {
				key := clientID*1000 + tid
				mu.Lock()
				logs[key] = append(logs[key], fmt.Sprintf("%d %s %s %d", key, kind, path, n))
				mu.Unlock()
			},
		}
		rep, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		keys := make([]int, 0, len(logs))
		for k := range logs {
			keys = append(keys, k)
		}
		sort.Ints(keys)
		var sb strings.Builder
		for _, k := range keys {
			for _, line := range logs[k] {
				sb.WriteString(line)
				sb.WriteByte('\n')
			}
		}
		return sb.String(), rep.OpErrors
	}
	logA, errsA := eventLog()
	logB, errsB := eventLog()
	if errsA != 0 || errsB != 0 {
		t.Fatalf("delay-only runs had op errors (%d, %d): an outcome-affecting fault leaked into the determinism fixture", errsA, errsB)
	}
	if logA == "" {
		t.Fatal("event log is empty; OnOp never fired")
	}
	if logA != logB {
		t.Fatalf("same seed and plan produced different event logs:\nrun A:\n%srun B:\n%s", logA, logB)
	}
}

// writerCrashRun is one seed of the writer-crash rollback scenario: a
// delayed-commit writer streams chunks into a file and crashes at a
// seed-chosen point — after publishing allocation intents, before committing
// some of them — while a reader on another mount polls the same file the
// whole time. Two oracles run on every reader observation:
//
//  1. Content: every observed byte is either zero (never written) or the
//     writer's pattern byte — never garbage, never a torn mix.
//  2. Durability: any observed non-zero byte that a committed extent maps to
//     the data device must be durable there at (or before) observation
//     time; device durability grows monotonically, so checking after the
//     read is sound.
//
// After the crash the MDS lease expiry reaps the writer: its intents roll
// back, and a fresh reader may see only the committed prefix — which must
// match the pattern exactly. The store must fsck clean.
func writerCrashRun(t *testing.T, seed int64) {
	const (
		fileSize  = 64 << 10
		chunk     = 4 << 10
		chunks    = fileSize / chunk
		leaseTime = 2 * time.Millisecond
	)
	opt := bench.Options{
		Scale:        1,
		DataDevices:  1,
		DeviceSize:   dataSpace,
		Disk:         blockdev.FastHDD(),
		Net:          netsim.Instant(),
		MDSDaemons:   4,
		LeaseTimeout: leaseTime,
		CommitCheck:  true,
		Seed:         seed,
	}
	c := bench.Build(bench.SysRedbudDC, opt)
	defer c.Close()
	clk, data := c.Clock, c.Devices[0]
	mount := func(sys bench.System) *client.Client {
		cl, err := c.AddClient(sys)
		if err != nil {
			t.Fatal(err)
		}
		return cl
	}
	writer := mount(bench.SysRedbudDC)
	reader := mount(bench.SysRedbud)

	pat := make([]byte, fileSize)
	for i := range pat {
		pat[i] = byte(i)*7 + byte(seed) + 1
	}
	wf, err := writer.Create("/wc.dat")
	if err != nil {
		t.Fatal(err)
	}
	store := c.Store
	attr, err := store.Lookup(meta.RootID, "wc.dat")
	if err != nil {
		t.Fatal(err)
	}

	// The reader polls until told to stop, running both oracles per poll.
	// It re-opens the file each poll, as a cold conflict reader does, so
	// every poll sees the committed size of that moment.
	stop := make(chan struct{})
	var rwg sync.WaitGroup
	rwg.Add(1)
	observations := 0
	go func() {
		defer rwg.Done()
		buf := make([]byte, fileSize)
		for {
			select {
			case <-stop:
				return
			default:
			}
			rf, err := reader.Open("/wc.dat")
			if err != nil {
				t.Error(err)
				return
			}
			n, err := rf.ReadAt(buf, 0)
			rf.Close()
			if err != nil {
				continue
			}
			for j := 0; j < n; j++ {
				if buf[j] != 0 && buf[j] != pat[j] {
					t.Errorf("seed %d: reader observed garbage byte %#x at %d (want 0 or %#x)", seed, buf[j], j, pat[j])
					return
				}
			}
			if n > 0 {
				observations++
			}
			// Durability oracle: map observed non-zero bytes back to the
			// device through the committed layout, which only grows while
			// the reader polls.
			lay, lerr := store.GetLayout(attr.ID, 0, fileSize)
			if lerr != nil {
				continue
			}
			for _, e := range lay.Extents {
				hi := e.FileOff + e.Len
				if hi > int64(n) {
					hi = int64(n)
				}
				for j := e.FileOff; j < hi; j++ {
					if buf[j] != 0 && !data.IsDurable(e.VolOff+(j-e.FileOff), 1) {
						t.Errorf("seed %d: observed non-durable byte at file offset %d (dev off %d)", seed, j, e.VolOff+(j-e.FileOff))
						return
					}
				}
			}
			clk.Sleep(100 * time.Microsecond)
		}
	}()

	// The writer streams chunks and crashes at a seed-derived cut point:
	// everything before the cut was handed to the commit pool, but the crash
	// races the pool, so a seed-dependent suffix dies as published intents.
	cut := 1 + int(uint64(seed)*2654435761%uint64(chunks-1))
	for i := 0; i < cut; i++ {
		if _, err := wf.WriteAt(pat[i*chunk:(i+1)*chunk], int64(i*chunk)); err != nil {
			t.Fatalf("seed %d: write %d: %v", seed, i, err)
		}
		clk.Sleep(50 * time.Microsecond)
	}
	c.CrashClient(0)

	// Lease expiry reaps the dead writer: rollback of every intent it had
	// published but not committed. The reader keeps polling throughout.
	clk.Sleep(4 * leaseTime)
	c.MDSs[0].ExpireLeases()
	clk.Sleep(time.Millisecond)
	close(stop)
	rwg.Wait()

	// Post-rollback: a fresh mount sees only the committed prefix, and it
	// matches the pattern byte for byte.
	fresh := mount(bench.SysRedbud)
	ff, err := fresh.Open("/wc.dat")
	if err != nil {
		t.Fatal(err)
	}
	defer ff.Close()
	buf := make([]byte, fileSize)
	n, err := ff.ReadAt(buf, 0)
	if err != nil {
		t.Fatalf("seed %d: post-crash read: %v", seed, err)
	}
	for j := 0; j < n; j++ {
		if buf[j] != 0 && buf[j] != pat[j] {
			t.Fatalf("seed %d: post-rollback byte %d = %#x, want 0 or %#x", seed, j, buf[j], pat[j])
		}
	}
	if v := c.Violations(); len(v) != 0 {
		t.Fatalf("seed %d: ordered-write violations: %s", seed, strings.Join(v, "; "))
	}
	if bad := store.CheckConsistent(c.Durable); len(bad) != 0 {
		t.Fatalf("seed %d: %d committed extents without durable data", seed, len(bad))
	}
	if fsck := store.Fsck(c.AGTotal); !fsck.OK() {
		t.Fatalf("seed %d: post-rollback fsck: %s", seed, fsck)
	}
	t.Logf("seed %d: cut=%d/%d chunks, reader observations=%d", seed, cut, chunks, observations)
}

// TestChaosWriterCrashRollback sweeps the writer-crash scenario over the seed
// range; the nightly job widens it to 100 seeds with -race.
func TestChaosWriterCrashRollback(t *testing.T) {
	for s := 0; s < *seeds; s++ {
		seed := int64(s)*104729 + 3
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			t.Parallel()
			writerCrashRun(t, seed)
		})
	}
}

// shardedConfig is the sharded counterpart of invariantConfig: four MDS
// shards under the full fault menu — drops, duplicates, delays, reorders, a
// timed partition of one shard, probabilistic data-device faults — plus two
// mid-run crash-restarts of seed-chosen shards. Creates and removes whose
// placement hash separates child from parent run the two-phase cross-shard
// protocols under all of it.
func shardedConfig(seed int64) Config {
	cfg := invariantConfig(seed)
	cfg.Shards = 4
	cfg.Think = 500 * time.Microsecond // stretch the workload across the restarts
	cfg.Restarts = 2
	cfg.RestartEvery = 10 * time.Millisecond
	cfg.Net.Partitions = []netsim.Partition{
		{From: "*", To: "mds1", Start: 20 * time.Millisecond, End: 35 * time.Millisecond},
	}
	return cfg
}

// TestChaosShardedInvariants sweeps seeded fault plans over the sharded
// topology: no plan — including killing a random shard mid-run, possibly
// mid-cross-shard-protocol — may yield an undurable commit, an inconsistent
// shard, a cross-shard referential break, or an unrecoverable journal.
func TestChaosShardedInvariants(t *testing.T) {
	for s := 0; s < *seeds; s++ {
		seed := int64(s)*6151 + 11
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			t.Parallel()
			rep, err := Run(shardedConfig(seed))
			if err != nil {
				t.Fatal(err)
			}
			assertClean(t, rep)
			var ops int64
			for _, r := range rep.Results {
				ops += r.Ops
			}
			if ops > 0 && rep.OpErrors >= ops {
				t.Errorf("every one of %d ops failed; the fault plan starved the workload", ops)
			}
			t.Logf("ops=%d opErrors=%d restartedShards=%v netFaults=%+v diskFaults=%d dedupHits=%d",
				ops, rep.OpErrors, rep.RestartedShards, rep.Faults, rep.DiskFaults, rep.DedupHits)
		})
	}
}

// TestChaosShardedRestart crash-restarts seed-chosen shards three times
// mid-workload with no other faults: clients must redial the dead shard,
// observe its incarnation bump, re-establish only the session state homed
// there, and keep making progress on every shard; all shards must fsck clean
// individually and against each other.
func TestChaosShardedRestart(t *testing.T) {
	cfg := shardedConfig(2026)
	cfg.Net = netsim.FaultPlan{}
	cfg.Disk = DiskFaults{}
	cfg.Ops = 40
	cfg.Think = time.Millisecond
	cfg.Restarts = 3
	cfg.RestartEvery = 15 * time.Millisecond
	rep, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Restarts != 3 {
		t.Fatalf("completed %d restarts, want 3", rep.Restarts)
	}
	assertClean(t, rep)
	var ops int64
	for _, r := range rep.Results {
		ops += r.Ops
	}
	if want := int64(cfg.Clients * cfg.Threads * cfg.Ops); ops != want {
		t.Fatalf("measured %d ops, want %d: a thread died instead of retrying", ops, want)
	}
	if rep.OpErrors >= ops {
		t.Fatalf("all %d ops failed across the restarts; sessions never re-established", ops)
	}
	t.Logf("ops=%d opErrors=%d restartedShards=%v dedupHits=%d", ops, rep.OpErrors, rep.RestartedShards, rep.DedupHits)
}

// TestChaosShardedDeterminism is the run-twice determinism check for the
// sharded topology: same seed, delay-only plan, no retries — the per-thread
// event logs of two runs must be byte-identical even though ops now fan out
// over two shards and the cross-shard protocols.
func TestChaosShardedDeterminism(t *testing.T) {
	eventLog := func() (string, int64) {
		var mu sync.Mutex
		logs := map[int][]string{}
		cfg := Config{
			Seed:    271,
			Shards:  2,
			Clients: 2,
			Threads: 2,
			Ops:     20,
			Prefill: 2,
			Mode:    client.DelayedCommit,
			Fsync:   true,
			Retry:   client.RetryPolicy{MaxAttempts: 1},
			Net: netsim.FaultPlan{
				Default: netsim.LinkFaults{DelayProb: 0.3, DelaySpike: 300 * time.Microsecond},
			},
			OnOp: func(clientID, tid int, kind workload.OpKind, path string, n int64) {
				key := clientID*1000 + tid
				mu.Lock()
				logs[key] = append(logs[key], fmt.Sprintf("%d %s %s %d", key, kind, path, n))
				mu.Unlock()
			},
		}
		rep, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		assertClean(t, rep)
		keys := make([]int, 0, len(logs))
		for k := range logs {
			keys = append(keys, k)
		}
		sort.Ints(keys)
		var sb strings.Builder
		for _, k := range keys {
			for _, line := range logs[k] {
				sb.WriteString(line)
				sb.WriteByte('\n')
			}
		}
		return sb.String(), rep.OpErrors
	}
	logA, errsA := eventLog()
	logB, errsB := eventLog()
	if errsA != 0 || errsB != 0 {
		t.Fatalf("delay-only sharded runs had op errors (%d, %d): an outcome-affecting fault leaked into the determinism fixture", errsA, errsB)
	}
	if logA == "" {
		t.Fatal("event log is empty; OnOp never fired")
	}
	if logA != logB {
		t.Fatalf("same seed and plan produced different event logs:\nrun A:\n%srun B:\n%s", logA, logB)
	}
}

// TestChaosFaultFreeSLOSilent is the cluster SLO smoke check: a fault-free
// sharded run must end with the full default rule set evaluated and every
// alert inactive — the observability plane may not cry wolf on a healthy
// cluster. It also pins the aggregation contract the rules evaluate against:
// every shard (and the client set) contributes a scraped, shard-tagged
// snapshot, the merge drops nothing, and the merged commit-latency histogram
// covers the run's commits.
func TestChaosFaultFreeSLOSilent(t *testing.T) {
	cfg := shardedConfig(777)
	cfg.Net = netsim.FaultPlan{}
	cfg.Disk = DiskFaults{}
	cfg.Restarts = 0
	cfg.Think = 0
	rep, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	assertClean(t, rep)
	if got, want := len(rep.Alerts), len(agg.DefaultRules()); got != want {
		t.Fatalf("final evaluation covered %d rules, want the full default set of %d", got, want)
	}
	for _, a := range rep.Alerts {
		if a.State != agg.StateInactive {
			t.Errorf("alert %q is %s on a fault-free run (value %g, threshold %s %g)",
				a.Rule.Name, a.State, a.Value, a.Rule.Op, a.Rule.Threshold)
		}
	}
	if len(rep.SLOEvents) != 0 {
		t.Errorf("fault-free run logged %d alert transitions: %+v", len(rep.SLOEvents), rep.SLOEvents)
	}
	if rep.Cluster.Dropped != 0 {
		t.Errorf("merge dropped %d series in a homogeneous cluster", rep.Cluster.Dropped)
	}
	if got, want := len(rep.Cluster.Shards), cfg.Shards+1; got != want {
		t.Fatalf("collection covered %d sources, want %d (every shard plus the clients)", got, want)
	}
	for _, sh := range rep.Cluster.Shards {
		if sh.Err != "" {
			t.Errorf("source %s failed to scrape: %s", sh.Shard, sh.Err)
		}
		if len(sh.Metrics.Metrics) == 0 {
			t.Errorf("source %s contributed no series", sh.Shard)
			continue
		}
		wantTag := fmt.Sprintf("shard=%q", sh.Shard)
		for _, m := range sh.Metrics.Metrics {
			if !strings.Contains(m.Labels, wantTag) {
				t.Errorf("source %s: series %s{%s} is missing its %s tag", sh.Shard, m.Name, m.Labels, wantTag)
				break
			}
		}
	}
	var commits int64
	for _, m := range rep.Cluster.Merged.Metrics {
		if m.Name == "redbud_mds_commit_latency_seconds" && m.Hist != nil {
			commits += m.Hist.Count
		}
	}
	if commits == 0 {
		t.Error("merged commit-latency histogram is empty; shard histograms did not aggregate")
	}
	t.Logf("sources=%d mergedSeries=%d commits=%d alerts all inactive",
		len(rep.Cluster.Shards), len(rep.Cluster.Merged.Metrics), commits)
}

// TestChaosShardedRenameBothShardsCrash drives a cross-shard rename over the
// wire phase by phase and crashes BOTH shards after each prefix of the
// protocol: the client mounts a two-shard cluster and builds the namespace,
// then the test issues the four rename phases as raw RPCs, kills both
// servers, recovers both stores from their journals, and runs intent
// resolution. At every crash point the file must converge to exactly one of
// its two names — the old one before the commit point (phase 3, the source
// dirent delete), the new one after — never both and never neither, with
// both shards fsck-clean and the file's data intact.
func TestChaosShardedRenameBothShardsCrash(t *testing.T) {
	const n = 2
	for stage := 0; stage <= 4; stage++ {
		t.Run(fmt.Sprintf("phases=%d", stage), func(t *testing.T) {
			c := bench.Build(bench.SysRedbud, bench.Options{
				Clients:     1,
				Scale:       1,
				DataDevices: dataDevices,
				DeviceSize:  dataSpace,
				Disk:        blockdev.ZeroLatency(),
				Net:         netsim.Instant(),
				MDSDaemons:  2,
				Shards:      n,
			})
			defer c.Close()

			// Build the fixture through the mounted client: two directories
			// homed on different shards and a synced file under the source
			// one.
			cl := c.Redbud[0]
			rootStore := c.Stores[meta.ShardOf(meta.RootID, n)]
			var srcID, dstID meta.FileID
			var srcName string
			for i := 0; i < 32 && (srcID == 0 || dstID == 0); i++ {
				name := fmt.Sprintf("d%d", i)
				if err := cl.Mkdir("/" + name); err != nil {
					t.Fatal(err)
				}
				attr, err := rootStore.Lookup(meta.RootID, name)
				if err != nil {
					t.Fatal(err)
				}
				if meta.ShardOf(attr.ID, n) == 0 && srcID == 0 {
					srcID, srcName = attr.ID, name
				} else if meta.ShardOf(attr.ID, n) == 1 && dstID == 0 {
					dstID = attr.ID
				}
			}
			if srcID == 0 || dstID == 0 {
				t.Fatal("placement hash never separated two directories; fixture broken")
			}
			pat := make([]byte, 4096)
			for i := range pat {
				pat[i] = byte(i*13 + stage)
			}
			wf, err := cl.Create("/" + srcName + "/f")
			if err != nil {
				t.Fatal(err)
			}
			if _, err := wf.WriteAt(pat, 0); err != nil {
				t.Fatal(err)
			}
			if err := wf.Close(); err != nil {
				t.Fatal(err)
			}
			if err := cl.Close(); err != nil {
				t.Fatal(err)
			}
			fattr, err := c.Stores[meta.ShardOf(srcID, n)].Lookup(srcID, "f")
			if err != nil {
				t.Fatal(err)
			}
			fid := fattr.ID

			// The four phases of renaming src/f -> dst/g, as the client
			// would issue them, against the live servers.
			c.Net.AddHost("probe", netsim.Instant())
			dial := func(shard int) *rpc.Client {
				conn, err := c.Dial("probe", shard)
				if err != nil {
					t.Fatal(err)
				}
				return conn
			}
			sp, dp := dial(0), dial(1)
			phases := []func() error{
				func() error {
					return sp.Call(proto.OpNSPrepare, &proto.NSPrepareReq{
						File: fid, Kind: meta.NSRenameSrc, Type: meta.TypeFile, Parent: srcID, Name: "f"}, nil)
				},
				func() error {
					return dp.Call(proto.OpNSPrepare, &proto.NSPrepareReq{
						File: fid, Kind: meta.NSRenameDst, Type: meta.TypeFile, Parent: srcID, Name: "f",
						DstParent: dstID, DstName: "g"}, nil)
				},
				func() error {
					return sp.Call(proto.OpNSCommit, &proto.NSCommitReq{File: fid, Kind: meta.NSRenameSrc}, nil)
				},
				func() error {
					return dp.Call(proto.OpNSCommit, &proto.NSCommitReq{File: fid, Kind: meta.NSRenameDst}, nil)
				},
			}
			for i := 0; i < stage; i++ {
				if err := phases[i](); err != nil {
					t.Fatalf("phase %d: %v", i+1, err)
				}
			}

			// Crash BOTH shards, recover each from its journal, resolve.
			for i := 0; i < n; i++ {
				c.StopShard(i)
			}
			sp.Close()
			dp.Close()
			for i := 0; i < n; i++ {
				if _, err := c.RecoverShard(i); err != nil {
					t.Fatal(err)
				}
			}
			recovered := c.Stores
			if err := meta.ResolveNSIntents(recovered); err != nil {
				t.Fatalf("intent resolution: %v", err)
			}

			wantNew := stage >= 3 // the commit point is the source-dirent delete
			_, oldErr := recovered[meta.ShardOf(srcID, n)].Lookup(srcID, "f")
			_, newErr := recovered[meta.ShardOf(dstID, n)].Lookup(dstID, "g")
			if wantNew {
				if newErr != nil || oldErr == nil {
					t.Fatalf("after %d phases want only dst/g: src err=%v dst err=%v", stage, oldErr, newErr)
				}
			} else {
				if oldErr != nil || newErr == nil {
					t.Fatalf("after %d phases want only src/f: src err=%v dst err=%v", stage, oldErr, newErr)
				}
			}
			attr, err := recovered[meta.ShardOf(fid, n)].GetAttr(fid)
			if err != nil {
				t.Fatalf("file inode lost: %v", err)
			}
			if attr.Size != int64(len(pat)) {
				t.Fatalf("file size %d after recovery, want %d", attr.Size, len(pat))
			}
			for i, rec := range recovered {
				if rep := rec.Fsck(c.AGTotals[i]); !rep.OK() {
					t.Fatalf("shard %d fsck: %s", i, rep)
				}
			}
			if probs := meta.FsckCluster(recovered); len(probs) != 0 {
				t.Fatalf("cluster fsck: %s", strings.Join(probs, "; "))
			}
			for _, in := range recovered[0].NSIntents() {
				t.Errorf("shard 0 intent survived resolution: %+v", in)
			}
			for _, in := range recovered[1].NSIntents() {
				t.Errorf("shard 1 intent survived resolution: %+v", in)
			}
		})
	}
}

// sharedConfig is the shared-file scenario's fault menu: dropped and delayed
// frames, a partition that cuts the first client — the one that created the
// files and so holds every delegation at the start — off the MDS for longer
// than a call timeout, and an MDS restart under all of it. (No duplicates or
// reorders: a duplicated remove that lands after the file has been re-created
// is a hazard of at-least-once delivery, not of the cache under test, and the
// oracle could not tell the two apart.)
func sharedConfig(seed int64) Config {
	return Config{
		Seed:    seed,
		Clients: 2,
		Threads: 2,
		Ops:     40,
		Mode:    client.DelayedCommit,
		Think:   500 * time.Microsecond,
		Retry: client.RetryPolicy{
			MaxAttempts: 6,
			BaseDelay:   time.Millisecond,
			MaxDelay:    8 * time.Millisecond,
			CallTimeout: 50 * time.Millisecond,
		},
		Net: netsim.FaultPlan{
			Default: netsim.LinkFaults{DropProb: 0.02, DelayProb: 0.10, DelaySpike: 2 * time.Millisecond},
			Partitions: []netsim.Partition{
				{From: "client-0", To: "mds", Start: 5 * time.Millisecond, End: 70 * time.Millisecond},
			},
		},
		Restarts:     1,
		RestartEvery: 40 * time.Millisecond,
	}
}

func assertSharedClean(t *testing.T, rep *SharedReport) {
	t.Helper()
	for _, m := range rep.Mismatches {
		t.Errorf("cache contradicts the store: %s", m)
	}
	if len(rep.Violations) != 0 {
		t.Errorf("ordered-write violations:\n  %s", strings.Join(rep.Violations, "\n  "))
	}
	for i, f := range rep.Fscks {
		if !f.OK() {
			t.Errorf("fsck, shard %d: %s %v", i, f, f.Problems)
		}
	}
	if len(rep.ClusterIssues) != 0 {
		t.Errorf("cross-shard fsck: %s", strings.Join(rep.ClusterIssues, "; "))
	}
	if rep.Checked == 0 || rep.Deleg.Grants == 0 {
		t.Errorf("%d results checked, %d delegations granted: the run exercised nothing", rep.Checked, rep.Deleg.Grants)
	}
}

// TestChaosSharedFiles sweeps seeded fault plans over the shared-file
// scenario: two clients re-open, append to, remove, re-create and rename one
// small set of files, each serving its own opens from file delegations the
// other's mutations must first take back, under drops, a partition of the
// holder and an MDS restart. Every Open and Stat result is compared with the
// store; the cache must never contradict it. The nightly job widens the
// sweep to 100 seeds with -race.
func TestChaosSharedFiles(t *testing.T) {
	for s := 0; s < *seeds; s++ {
		seed := int64(s)*15485863 + 29
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			t.Parallel()
			rep, err := RunShared(sharedConfig(seed))
			if err != nil {
				t.Fatal(err)
			}
			assertSharedClean(t, rep)
			if rep.Restarts != 1 {
				t.Errorf("completed %d restarts, want 1", rep.Restarts)
			}
			t.Logf("ops=%d opErrors=%d checked=%d openHits=%d deleg=%+v netFaults=%+v",
				rep.Ops, rep.OpErrors, rep.Checked, rep.OpenHits, rep.Deleg, rep.Faults)
		})
	}
}

// TestChaosSharedFilesFaultFree is the same scenario with nothing injected:
// nothing fails, every recall is acknowledged or outlives an idle holder's
// lease, and the caches are used.
func TestChaosSharedFilesFaultFree(t *testing.T) {
	cfg := sharedConfig(7)
	cfg.Net = netsim.FaultPlan{}
	cfg.Restarts = 0
	// A mutation may wait out an idle holder's lease; with the sweep's 50 ms
	// call timeout that is a (clean, settled) failure, here it must not be one.
	cfg.Retry.CallTimeout = 10 * meta.DelegTerm
	rep, err := RunShared(cfg)
	if err != nil {
		t.Fatal(err)
	}
	assertSharedClean(t, rep)
	if rep.OpErrors != 0 {
		t.Errorf("%d of %d ops failed with no fault injected", rep.OpErrors, rep.Ops)
	}
	if rep.OpenHits == 0 || rep.Deleg.Recalls == 0 {
		t.Errorf("%d opens served from delegations, %d recalls: the scenario did not contest the cache", rep.OpenHits, rep.Deleg.Recalls)
	}
	t.Logf("ops=%d checked=%d openHits=%d deleg=%+v", rep.Ops, rep.Checked, rep.OpenHits, rep.Deleg)
}

// TestChaosSharedFilesSharded runs the scenario over two MDS shards, where
// half the files are homed away from their dirents: opens keep the name
// lookup, the attribute delegation lives on the home shard, and the
// cross-shard remove and rename sagas recall there before their commit point.
// It is the sharded sweep that runs delayed commit without space delegation:
// every write-behind batch allocates with a layout-get on its file's shard.
func TestChaosSharedFilesSharded(t *testing.T) {
	for s := 0; s < *seeds; s++ {
		seed := int64(s)*32452843 + 31
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			t.Parallel()
			cfg := sharedConfig(seed)
			cfg.Shards = 2
			cfg.Delegation = -1
			cfg.Net.Partitions = []netsim.Partition{
				{From: "client-0", To: "mds1", Start: 5 * time.Millisecond, End: 70 * time.Millisecond},
			}
			rep, err := RunShared(cfg)
			if err != nil {
				t.Fatal(err)
			}
			assertSharedClean(t, rep)
			t.Logf("ops=%d opErrors=%d checked=%d openHits=%d deleg=%+v netFaults=%+v",
				rep.Ops, rep.OpErrors, rep.Checked, rep.OpenHits, rep.Deleg, rep.Faults)
		})
	}
}
