// Package chaos drives the whole simulated cluster — network, data device,
// journal, MDS, clients — through seeded fault plans while auditing the
// paper's ordered-write contract on every commit the MDS applies.
//
// A run is reproducible from its Config: one seed derives the network fault
// decisions, the disk fault rolls, each workload thread's op stream, and the
// clients' retry jitter. The harness checks three things:
//
//  1. Live invariant: CommitCheck rejects (and records) any commit whose
//     extents are not durable on the data device at the instant the MDS
//     applies it — the ordered-write rule, checked on every commit including
//     retransmissions.
//  2. End-of-run consistency: CheckConsistent finds no committed extent
//     whose data never became durable, and Fsck finds no space-accounting
//     or reachability problem in the live store.
//  3. Crash-at-end recovery: a fresh store recovered from the journal also
//     fscks clean, so the run's surviving history is replayable.
//
// Mid-run MDS restarts (Config.Restarts) exercise the full recovery path:
// the listener is replaced, in-flight calls die with ErrConnClosed, clients
// redial, learn the bumped incarnation from OpHello, and re-establish their
// sessions against the recovered store.
//
// The cluster itself — assembly, the commit oracle's wiring, and the stop /
// recover / serve lifecycle of a shard — is internal/bench's; this package
// keeps the workload, the fault plan and the oracles.
package chaos

import (
	"fmt"
	"math/rand"
	"sync"
	"time"

	"redbud/internal/bench"
	"redbud/internal/blockdev"
	"redbud/internal/client"
	"redbud/internal/clock"
	"redbud/internal/meta"
	"redbud/internal/netsim"
	"redbud/internal/obs"
	"redbud/internal/obs/agg"
	"redbud/internal/workload"
)

// The shared data array of a chaos cluster.
const (
	dataDevices = 2
	dataSpace   = 1 << 30 // capacity of each data device
)

// DiskFaults configures probabilistic write faults on the shared data
// device. The metadata device stays fault-free: torn-journal recovery has
// dedicated crash-point tests in internal/meta, and a probabilistic journal
// tear mid-run would halt the store rather than exercise anything this
// harness can keep checking.
type DiskFaults struct {
	// ErrProb is the probability a data write fails with an I/O error.
	ErrProb float64
	// TornProb is the probability a data write is torn partway through.
	TornProb float64
}

// Config describes one chaos run. The zero value of most fields picks a
// sensible default; a Seed alone is enough for a smoke run.
type Config struct {
	// Seed drives every random stream in the run.
	Seed int64

	// Shards runs the metadata service as this many independent MDS
	// shards (default 1), each with its own store, journal device, slice
	// of the data array, and listener host ("mds0".."mdsN-1"). Clients
	// mount the whole shard set and route per-inode; creates and removes
	// whose placement hash lands a child away from its parent's shard
	// exercise the two-phase cross-shard protocols under the fault plan.
	// Restarts crash a seed-chosen shard each time. With space delegation
	// each client carves a file's space from a pool of its home shard's
	// chunks.
	Shards int

	// Clients file-system clients (default 2), each running Threads
	// application threads (default 2) of Ops measured operations
	// (default 30) over Prefill pre-created files per thread.
	Clients int
	Threads int
	Ops     int
	Prefill int

	// FileSize is the created-file size (default 16 KiB).
	FileSize int64
	// Mix weights the op mix; nil picks a create/read/append/stat/delete
	// blend.
	Mix []workload.OpWeight
	// Mode selects the commit path (SyncCommit or DelayedCommit).
	Mode client.Mode
	// Fsync forces a commit barrier after every workload write.
	Fsync bool
	// Think is per-op application compute time; use it to stretch the
	// workload across scheduled restarts.
	Think time.Duration
	// Delegation is the delayed-commit clients' space-delegation chunk
	// (default 1 MiB, negative disables delegation).
	Delegation int64

	// Retry is the clients' fault-tolerance policy. The zero value picks
	// MaxAttempts 6, 1ms..16ms backoff, and a 75ms call timeout. A plan
	// with DropProb > 0 needs CallTimeout > 0, or a dropped frame parks
	// its calling thread forever.
	Retry client.RetryPolicy

	// Net is the network fault plan; its Seed defaults to Config.Seed.
	Net netsim.FaultPlan
	// Disk injects data-device write faults.
	Disk DiskFaults

	// Restarts crash-restarts the MDS this many times, every RestartEvery
	// of virtual time (default 10ms): the listener is closed, the server
	// drained, and the store recovered from the journal under a bumped
	// incarnation.
	Restarts     int
	RestartEvery time.Duration

	// LeaseTimeout enables MDS lease expiry (0 disables).
	LeaseTimeout time.Duration

	// Clock overrides the simulation clock (default: the wall clock,
	// uncompressed).
	Clock clock.Clock

	// Tracer, when non-nil, records commit-lifecycle spans across every
	// layer of the run (devices, network, MDS — including restarted
	// incarnations — and clients). Export with obs.WriteChromeTrace to see
	// what a fault plan does to the commit path.
	Tracer *obs.Tracer

	// OnOp observes every measured workload operation in per-thread issue
	// order; the determinism test diffs two runs through this hook.
	OnOp func(clientID, tid int, kind workload.OpKind, path string, n int64)
}

// Report is what a run leaves behind for assertions.
type Report struct {
	// Results holds one workload result per client.
	Results []workload.Result
	// Violations lists every commit the MDS saw whose extents were not
	// durable — ordered-write contract breaches. Must stay empty.
	Violations []string
	// Inconsistent lists committed extents whose data was not durable at
	// the end of the run. Must stay empty.
	Inconsistent []meta.Extent
	// Fsck checks the live store at end of run; RecoveredFsck re-runs the
	// check on a store recovered from the journal afterwards (the
	// crash-at-end scenario). In a sharded run these are shard 0's
	// reports; ShardFscks/RecoveredShardFscks carry every shard's.
	Fsck          meta.FsckReport
	RecoveredFsck meta.FsckReport
	// ShardFscks and RecoveredShardFscks hold the per-shard fsck reports
	// (index = shard); ClusterIssues and RecoveredClusterIssues list
	// cross-shard referential problems found by FsckCluster after the
	// end-of-run intent resolution. All must stay clean.
	ShardFscks             []meta.FsckReport
	RecoveredShardFscks    []meta.FsckReport
	ClusterIssues          []string
	RecoveredClusterIssues []string
	// Recovery reports the final recovery's replay statistics (shard 0).
	Recovery meta.RecoveryStats
	// Restarts counts completed mid-run MDS restarts.
	Restarts int
	// RestartedShards records which shard each completed restart hit.
	RestartedShards []int
	// DedupHits counts commit retransmissions answered from the MDS dedup
	// table, summed across incarnations; a crashed incarnation's count is
	// read just before its crash.
	DedupHits int64
	// Cluster is the final metrics collection round: every shard's (and the
	// clients') tagged snapshot plus the cluster-wide merge the SLO rules
	// were last evaluated against.
	Cluster agg.ClusterSnapshot
	// Alerts is the SLO engine's per-rule state after the final evaluation
	// and SLOEvents its full transition log. A fault-free run must end with
	// every alert inactive and the log empty.
	Alerts    []agg.Alert
	SLOEvents []agg.Event
	// Faults holds the network fault-injection counters.
	Faults netsim.FaultStats
	// DiskFaults counts injected data-device write faults.
	DiskFaults int64
	// OpErrors sums per-operation workload errors (expected under faults;
	// an op that fails cleanly is not an invariant breach).
	OpErrors int64
	// CloseErrs collects client-shutdown errors, which are tolerated: a
	// client can hold uncommittable state after a restart reclaimed its
	// delegations.
	CloseErrs []error
}

// defaultMix is the blend used when Config.Mix is nil.
func defaultMix() []workload.OpWeight {
	return []workload.OpWeight{
		{Kind: workload.OpCreateWrite, Weight: 4},
		{Kind: workload.OpRead, Weight: 3},
		{Kind: workload.OpAppend, Weight: 2},
		{Kind: workload.OpStat, Weight: 2},
		{Kind: workload.OpDelete, Weight: 1},
	}
}

// planActive reports whether plan would affect any frame at all.
func planActive(p netsim.FaultPlan) bool {
	return p.Script != nil || p.Default != (netsim.LinkFaults{}) ||
		len(p.Links) > 0 || len(p.Partitions) > 0
}

// build applies the defaults to cfg and assembles the cluster it describes,
// faults armed: a shared, zero-latency data array every shard owns a slice
// of, one fault-free metadata disk per shard carrying its journal, instant
// links, and the durability oracle on every commit any shard applies.
// Single-shard runs keep the historical "mds" host (fault plans and
// determinism fixtures address it by name); sharded runs use
// "mds0".."mdsN-1". Clients are "client-0".."client-N-1".
func build(cfg *Config) *bench.Cluster {
	if cfg.Clients <= 0 {
		cfg.Clients = 2
	}
	if cfg.Threads <= 0 {
		cfg.Threads = 2
	}
	if cfg.Ops <= 0 {
		cfg.Ops = 30
	}
	if cfg.FileSize <= 0 {
		cfg.FileSize = 16 << 10
	}
	if cfg.Mix == nil {
		cfg.Mix = defaultMix()
	}
	if cfg.Retry == (client.RetryPolicy{}) {
		cfg.Retry = client.RetryPolicy{
			MaxAttempts: 6,
			BaseDelay:   time.Millisecond,
			MaxDelay:    16 * time.Millisecond,
			CallTimeout: 75 * time.Millisecond,
		}
	}
	if cfg.RestartEvery <= 0 {
		cfg.RestartEvery = 10 * time.Millisecond
	}
	if cfg.Shards <= 0 {
		cfg.Shards = 1
	}
	opt := bench.Options{
		Clients:         cfg.Clients,
		Scale:           1,
		Clock:           cfg.Clock,
		DataDevices:     dataDevices,
		DeviceSize:      dataSpace,
		Disk:            blockdev.ZeroLatency(),
		Net:             netsim.Instant(),
		MDSDaemons:      4,
		LeaseTimeout:    cfg.LeaseTimeout,
		CommitCheck:     true,
		DelegationChunk: cfg.Delegation,
		Retry:           cfg.Retry,
		Seed:            cfg.Seed,
		Tracer:          cfg.Tracer,
		Shards:          cfg.Shards,
	}
	if opt.DelegationChunk == 0 {
		opt.DelegationChunk = 1 << 20
	}
	sys := bench.SysRedbud
	if cfg.Mode == client.DelayedCommit {
		sys = bench.SysRedbudDC
		if opt.DelegationChunk > 0 {
			sys = bench.SysRedbudDCSD
		}
	}
	c := bench.Build(sys, opt)
	if cfg.Disk.ErrProb > 0 || cfg.Disk.TornProb > 0 {
		faultFn := blockdev.ProbFaults(cfg.Seed^0x5eed, cfg.Disk.ErrProb, cfg.Disk.TornProb)
		for _, d := range c.Devices {
			d.SetWriteFault(faultFn)
		}
	}
	plan := cfg.Net
	if plan.Seed == 0 {
		plan.Seed = cfg.Seed
	}
	if planActive(plan) {
		c.Net.InstallFaults(plan)
	}
	return c
}

// Run executes one chaos run and returns its report. A non-nil error means
// the harness itself failed (a recovery error) — invariant breaches are
// reported through Report fields, not the error.
func Run(cfg Config) (*Report, error) {
	c := build(&cfg)
	defer c.Close()
	clk, shards := c.Clock, cfg.Shards

	// The observability plane rides along on every run: the cluster's
	// collector reads whichever MDS incarnation is live on each shard, and
	// the stock SLO rules are evaluated on the merged cluster view at every
	// checkpoint — after each completed restart and at end of run.
	rep := &Report{}
	slo := agg.NewEngine(agg.DefaultRules())
	checkpoint := func() {
		rep.Cluster = c.Collector.Collect()
		rep.Alerts = slo.Evaluate(clk.Now(), rep.Cluster.Merged)
		rep.SLOEvents = slo.Events()
	}

	// Fan the workloads out, one namespace subtree per client.
	rep.Results = make([]workload.Result, cfg.Clients)
	var wg sync.WaitGroup
	for i, cl := range c.Redbud {
		wg.Add(1)
		go func() {
			defer wg.Done()
			spec := workload.Spec{
				Name:             fmt.Sprintf("w%d", i),
				Threads:          cfg.Threads,
				OpsPerThread:     cfg.Ops,
				PrefillPerThread: cfg.Prefill,
				FileSize:         workload.SizeDist{Mean: cfg.FileSize, Fixed: true},
				Mix:              cfg.Mix,
				FsyncWrites:      cfg.Fsync,
				Think:            cfg.Think,
				Seed:             cfg.Seed + int64(i+1)*7919,
			}
			if cfg.OnOp != nil {
				spec.OnOp = func(tid int, kind workload.OpKind, path string, n int64) {
					cfg.OnOp(i, tid, kind, path, n)
				}
			}
			// A set-up or prefill that died under faults is counted and
			// the measured phase runs anyway: its ops on what the prefill
			// never made fail as op errors, and a cleanly failed op is not
			// an invariant breach.
			perr := workload.Prefill(cl, spec)
			res, err := workload.Measure(cl, clk, spec)
			for _, e := range []error{perr, err} {
				if e != nil {
					res.Errors++
				}
			}
			rep.Results[i] = res
		}()
	}

	// Scheduled crash-restarts while the workloads run, each hitting a
	// seed-chosen shard. The survivors' connections die underneath them and
	// the retry layer takes over: redial, OpHello, incarnation bump,
	// per-shard session re-establishment. A shard killed mid-cross-shard-
	// protocol leaves journaled intents the end-of-run resolution settles.
	restartRng := rand.New(rand.NewSource(cfg.Seed ^ 0x7e57a7))
	var restartErr error
	for r := 0; r < cfg.Restarts; r++ {
		clk.Sleep(cfg.RestartEvery)
		i := restartRng.Intn(shards)
		rep.DedupHits += sum(c.Collector.Collect().Shards[i].Metrics, dedupHits)
		restartErr = c.RestartShard(i)
		if restartErr != nil {
			restartErr = fmt.Errorf("chaos: restart %d: %w", r+1, restartErr)
			break
		}
		rep.Restarts++
		rep.RestartedShards = append(rep.RestartedShards, i)
		checkpoint()
	}

	wg.Wait()

	// The faulty phase is over: snapshot the counters, lift the faults,
	// and shut the clients down cleanly.
	rep.Faults = netsim.FaultsIn(c.Registry.Snapshot())
	c.Net.ClearFaults()
	for i, cl := range c.Redbud {
		if err := cl.Close(); err != nil {
			rep.CloseErrs = append(rep.CloseErrs, err)
		}
		for _, st := range c.Stores {
			st.ClientGone(fmt.Sprintf("client-%d", i))
		}
	}
	for _, res := range rep.Results {
		rep.OpErrors += res.Errors
	}
	// Final observability checkpoint: the workloads are done and the clients
	// closed, so the merged snapshot is the run's complete metric history and
	// the alert states are the run's verdict.
	checkpoint()
	rep.DedupHits += sum(rep.Cluster.Merged, dedupHits)
	rep.DiskFaults = sum(c.Registry.Snapshot(), "redbud_dev_injected_faults_total")
	if restartErr != nil {
		return rep, restartErr
	}

	// audit drives every cross-shard namespace intent a fault or crash
	// stranded to its unique outcome, then fscks each shard and the
	// references between them.
	audit := func() (fscks []meta.FsckReport, issues []string, err error) {
		if shards > 1 {
			if err := meta.ResolveNSIntents(c.Stores); err != nil {
				return nil, nil, err
			}
			issues = meta.FsckCluster(c.Stores)
		}
		for i, st := range c.Stores {
			fscks = append(fscks, st.Fsck(c.AGTotals[i]))
		}
		return fscks, issues, nil
	}

	// The cluster is quiesced (clients closed, leases reaped).
	var err error
	if rep.ShardFscks, rep.ClusterIssues, err = audit(); err != nil {
		return rep, fmt.Errorf("chaos: intent resolution: %w", err)
	}
	rep.Fsck = rep.ShardFscks[0]
	rep.Violations = c.Violations()
	for _, st := range c.Stores {
		rep.Inconsistent = append(rep.Inconsistent, st.CheckConsistent(c.Durable)...)
	}

	// Crash-at-end: abandon every live store, recover each shard from its
	// journal, re-resolve stranded intents on the recovered cluster, and
	// fsck the recovered image — shard by shard and across shards.
	for i := range c.MDSs {
		c.StopShard(i)
		rst, err := c.RecoverShard(i)
		if err != nil {
			return rep, fmt.Errorf("chaos: final recovery: %w", err)
		}
		if i == 0 {
			rep.Recovery = rst
		}
	}
	if rep.RecoveredShardFscks, rep.RecoveredClusterIssues, err = audit(); err != nil {
		return rep, fmt.Errorf("chaos: post-recovery intent resolution: %w", err)
	}
	rep.RecoveredFsck = rep.RecoveredShardFscks[0]
	return rep, nil
}

// dedupHits is the MDS counter behind Report.DedupHits.
const dedupHits = "redbud_mds_dedup_hits_total"

// sum totals every series of one counter in a registry snapshot.
func sum(s obs.Snapshot, name string) (total int64) {
	for _, m := range s.Metrics {
		if m.Name == name {
			total += m.Value
		}
	}
	return total
}
