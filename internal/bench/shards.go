package bench

import (
	"fmt"
	"io"
	"sync"
	"sync/atomic"
	"time"

	"redbud/internal/blockdev"
	"redbud/internal/meta"
	"redbud/internal/proto"
	"redbud/internal/rpc"
	"redbud/internal/wire"
)

// ShardsRow is one shard count of the namespace-sharding sweep.
type ShardsRow struct {
	Shards        int
	Commits       int
	CommitsPerSec float64
	MeanUS        float64
	Speedup       float64
}

// shardDaemons is the per-shard MDS daemon pool width. It is kept narrow —
// half the paper's default pool — so a single shard is clearly pool-bound
// under the committer population and adding shards adds the only resource
// that matters. Sweeping daemons is Figure 7's job, not this figure's.
const shardDaemons = 4

// shardOpCost / shardFrameCost are the per-op and per-frame CPU costs used
// by this figure instead of Options' defaults. They are deliberately far
// above the real testbed's microsecond costs: clock.Real is a scaled wall
// clock, so at small -scale values each goroutine wakeup (hundreds of wall
// microseconds) reads back as tens of virtual milliseconds, and a figure
// whose modeled costs sit below that noise floor measures the Go scheduler,
// not the cluster. With ~26ms of modeled service per commit, the daemon
// pools dominate the noise floor at every supported -scale and the row
// RATIOS — the figure's one claim — are stable; the absolute commits/s
// column is in units of this inflated cost and is only comparable within
// the sweep.
const (
	shardOpCost    = 10 * time.Millisecond
	shardFrameCost = 16 * time.Millisecond
)

// shardMinScale floors the clock scale for this figure. Together with the
// inflated op costs it keeps every modeled sleep at >= ~5ms of wall time,
// an order of magnitude above Go timer slack, so the sweep's ratios hold on
// any runner. Below the floor, -scale would compress the modeled sleeps
// into the slack and hand the figure back to the scheduler.
const shardMinScale = 0.2

// committersPerClient fans each client node out into this many committer
// goroutines — enough demand that even on a slow runner, where wall-clock
// scheduling overhead inflates each committer's serial latency, four
// shards' daemon pools stay saturated. The population is fixed across the
// sweep, so the figure shows what sharding the servers buys a constant
// client load (which is also why the 8-shard row flattens: by then the
// committers, not the pools, are the limit).
const committersPerClient = 64

// shardCommitsBase is the total commit count at SizeFactor 1.
const shardCommitsBase = 12000

// FigShards measures multi-MDS namespace sharding: end-to-end commit
// throughput through the full RPC + daemon-pool + store + journal stack
// (BenchmarkMDSParallelCommit's path) while the namespace is hash-partitioned
// across 1, 2, 4 and 8 shards. Each shard is a complete metadata authority —
// its own daemon pool, store and journal device — so shard count is the
// scaling axis the multi-MDS design promises: per-shard journals and inode
// stripes let commits to different shards proceed with no shared lock or
// shared journal at all. The committer population and per-op costs are held
// fixed across the sweep; only the shard count varies.
//
// Files are spread round-robin over shards with the cross-shard create
// protocol (CreateDetached on the home shard, LinkRemote on the root's
// shard, NSCommit), so the steady-state traffic is pure single-shard commit
// RPCs — the common case sharding must make fast.
//
// The figure runs at max(-scale, shardMinScale) with its own inflated op
// costs (see shardOpCost): unlike the workload figures, its claim is a
// throughput RATIO between runs, which only holds when modeled sleeps stay
// above the wall-clock bridge's timer-slack noise floor.
func FigShards(opt Options) ([]ShardsRow, error) {
	total := int(float64(shardCommitsBase) * opt.SizeFactor)
	committers := committersPerClient * opt.Clients
	if committers < 1 || total < committers {
		return nil, fmt.Errorf("shards: %d commits across %d committers is not a measurement", total, committers)
	}
	var rows []ShardsRow
	for _, n := range []int{1, 2, 4, 8} {
		row, err := runShardSweep(opt, n, committers, total)
		if err != nil {
			return nil, fmt.Errorf("shards=%d: %w", n, err)
		}
		if len(rows) > 0 && rows[0].CommitsPerSec > 0 {
			row.Speedup = row.CommitsPerSec / rows[0].CommitsPerSec
		} else {
			row.Speedup = 1
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// runShardSweep builds an n-shard cluster and hammers it with commit traffic.
func runShardSweep(opt Options, n, committers, total int) (ShardsRow, error) {
	o := opt
	o.Clients = 0 // the committers below are raw RPC clients, not mounts
	o.Shards = n
	if o.Scale < shardMinScale {
		o.Scale = shardMinScale
	}
	o.MDSDaemons = shardDaemons
	o.MDSOpCost = shardOpCost
	o.MDSFrameCost = shardFrameCost
	// The journal disks charge a fixed per-write overhead (the
	// BenchmarkMDSParallelCommit model): group commit amortizes it, so the
	// daemon pool — the per-shard resource — is the constraint under test,
	// not journal bandwidth. The data array sees no I/O in this figure.
	o.Disk = blockdev.DiskModel{
		PerRequest:    30 * time.Microsecond,
		BandwidthMBps: 4000,
	}
	c := Build(SysRedbud, o)
	defer c.Close()
	clk, stores := c.Clock, c.Stores

	// One file per committer, homed round-robin across shards via the
	// cross-shard create protocol, its extent pre-allocated. The measured
	// loop is pure commit traffic (journal append + inode update) with
	// CommitID 0: retransmission dedup is off, every request does the work.
	rootShard := meta.ShardOf(meta.RootID, n)
	bodies := make([][]byte, committers)
	clis := make([]*rpc.Client, committers)
	for w := 0; w < committers; w++ {
		s := w % n
		name := fmt.Sprintf("f%d", w)
		var attr meta.Attr
		var err error
		if n == 1 {
			attr, err = stores[0].Create(meta.RootID, name, meta.TypeFile)
		} else {
			var durable meta.Durable
			attr, durable, err = stores[s].BeginCreateDetached(time.Time{}, meta.RootID, name, meta.TypeFile)
			if err = settle(durable, err); err == nil {
				err = settle(stores[rootShard].BeginLinkRemote(time.Time{}, meta.RootID, name, attr.ID, meta.TypeFile))
			}
			if err == nil {
				err = settle(stores[s].BeginNSCommit(time.Time{}, attr.ID, meta.NSCreate))
			}
		}
		if err != nil {
			return ShardsRow{}, fmt.Errorf("create %s: %w", name, err)
		}
		owner := fmt.Sprintf("committer-%d", w)
		lay, err := stores[s].AllocLayout(owner, attr.ID, 0, 4096)
		if err != nil {
			return ShardsRow{}, fmt.Errorf("alloc %s: %w", name, err)
		}
		req := proto.CommitReq{
			Owner: owner, File: attr.ID, Size: 4096,
			MTime: time.Unix(1, 0).UTC(), Extents: lay.Extents,
		}
		bodies[w] = wire.Encode(&req)

		c.Net.AddHost(owner, opt.Net)
		cli, err := c.Dial(owner, s)
		if err != nil {
			return ShardsRow{}, err
		}
		defer cli.Close()
		clis[w] = cli
	}

	var latNS atomic.Int64
	var firstErr atomic.Value
	start := clk.Now()
	var wg sync.WaitGroup
	for w := 0; w < committers; w++ {
		iters := total / committers
		if w < total%committers {
			iters++
		}
		wg.Add(1)
		go func(w, iters int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				t0 := clk.Now()
				if _, err := clis[w].CallRaw(proto.OpCommit, bodies[w]); err != nil {
					firstErr.CompareAndSwap(nil, fmt.Errorf("committer %d: %w", w, err))
					return
				}
				latNS.Add(int64(clk.Since(t0)))
			}
		}(w, iters)
	}
	wg.Wait()
	dur := clk.Since(start)
	if err, ok := firstErr.Load().(error); ok {
		return ShardsRow{}, err
	}
	if dur <= 0 {
		return ShardsRow{}, fmt.Errorf("zero-duration run")
	}
	return ShardsRow{
		Shards:        n,
		Commits:       total,
		CommitsPerSec: float64(total) / dur.Seconds(),
		MeanUS:        float64(latNS.Load()) / float64(total) / 1e3,
	}, nil
}

// PrintFigShards renders the sharding sweep.
func PrintFigShards(w io.Writer, rows []ShardsRow) {
	fmt.Fprintln(w, "Shards: commit throughput under namespace sharding, fixed committer population")
	fmt.Fprintf(w, "%-8s %10s %12s %14s %9s\n",
		"shards", "commits", "commits/s", "mean commit", "speedup")
	for _, r := range rows {
		fmt.Fprintf(w, "%-8d %10d %12.0f %11.0fus %8.2fx\n",
			r.Shards, r.Commits, r.CommitsPerSec, r.MeanUS, r.Speedup)
	}
}

// settle waits for the record of a store mutation the set-up applied, or
// returns the store's refusal.
func settle(durable meta.Durable, err error) error {
	if err != nil {
		return err
	}
	_, err = durable()
	return err
}
