package netsim

import (
	"hash/fnv"
	"math/rand"
	"sync"
	"time"

	"redbud/internal/clock"
	"redbud/internal/obs"
	"redbud/internal/stats"
)

// This file implements deterministic fault injection for the simulated
// fabric. A FaultPlan describes, per directed link, the probability of a
// frame being dropped, duplicated, delayed, or reordered, plus timed
// partitions. All randomness comes from per-link generators seeded from the
// plan seed, and all time comes from the fabric's clock, so a given
// (seed, plan, workload) triple replays the same fault schedule.

// LinkFaults is the probabilistic fault mix applied to frames on one
// directed link. The zero value injects nothing.
type LinkFaults struct {
	// DropProb is the probability a frame is silently discarded.
	DropProb float64
	// DupProb is the probability a frame is delivered twice.
	DupProb float64
	// DelayProb is the probability a frame is held for DelaySpike of
	// virtual time before delivery (on top of normal link latency).
	DelayProb  float64
	DelaySpike time.Duration
	// ReorderProb is the probability a frame is held back and delivered
	// after the link's next frame, swapping the pair. A held frame is
	// force-flushed after ReorderHold (default 1ms) so a quiet link cannot
	// turn a reorder into an unbounded stall.
	ReorderProb float64
	ReorderHold time.Duration
}

// Partition cuts every link whose source matches From and destination
// matches To ("*" matches any host) during [Start, End), measured in virtual
// time from the moment the plan was installed. Frames inside the window are
// dropped at the sender.
type Partition struct {
	From, To   string
	Start, End time.Duration
}

// Decision is the fate the injector assigns to a single frame.
type Decision struct {
	// Drop discards the frame.
	Drop bool
	// Dup delivers the frame twice.
	Dup bool
	// Delay holds the frame for this long before delivery.
	Delay time.Duration
	// Hold parks the frame until the link's next frame has been delivered
	// (reordering the pair), or until HoldFor elapses, whichever is first.
	Hold    bool
	HoldFor time.Duration
}

// FaultPlan is the cluster-wide fault schedule installed on a Network.
type FaultPlan struct {
	// Seed derives every per-link random stream.
	Seed int64
	// Default applies to every directed link without an entry in Links.
	Default LinkFaults
	// Links overrides Default, keyed by destination host name.
	Links map[string]LinkFaults
	// Partitions lists timed link cuts.
	Partitions []Partition
	// Script, when non-nil, is consulted first for every frame; returning a
	// non-nil Decision bypasses the probabilistic plan entirely. Tests use
	// it to aim a single fault at an exact protocol step.
	Script func(from, to string, n int) *Decision
}

// FaultStats counts injected faults since the plan was installed.
type FaultStats struct {
	Dropped     int64
	Duplicated  int64
	Delayed     int64
	Reordered   int64
	Partitioned int64
}

// injector evaluates one installed FaultPlan.
type injector struct {
	plan FaultPlan
	clk  clock.Clock
	t0   time.Time

	mu   sync.Mutex
	rngs map[string]*rand.Rand // one stream per directed link

	dropped     stats.Counter
	duplicated  stats.Counter
	delayed     stats.Counter
	reordered   stats.Counter
	partitioned stats.Counter
}

// InstallFaults activates plan on every simulated link of the fabric,
// replacing any previous plan. Partition windows are measured from now.
func (n *Network) InstallFaults(plan FaultPlan) {
	n.inj.Store(&injector{
		plan: plan,
		clk:  n.clk,
		t0:   n.clk.Now(),
		rngs: make(map[string]*rand.Rand),
	})
}

// ClearFaults removes the installed fault plan.
func (n *Network) ClearFaults() { n.inj.Store(nil) }

// FaultsIn reads the redbud_net_fault_*_total counters out of a snapshot of
// a registry the network registered into.
func FaultsIn(s obs.Snapshot) FaultStats {
	v := func(what string) int64 {
		m, _ := s.Get("redbud_net_fault_" + what + "_total")
		return m.Value
	}
	return FaultStats{
		Dropped:     v("dropped"),
		Duplicated:  v("duplicated"),
		Delayed:     v("delayed"),
		Reordered:   v("reordered"),
		Partitioned: v("partitioned"),
	}
}

// faultStats snapshots the injected-fault counters of the active plan, the
// source of the redbud_net_fault_*_total counters.
func (n *Network) faultStats() FaultStats {
	inj := n.inj.Load()
	if inj == nil {
		return FaultStats{}
	}
	return FaultStats{
		Dropped:     inj.dropped.Load(),
		Duplicated:  inj.duplicated.Load(),
		Delayed:     inj.delayed.Load(),
		Reordered:   inj.reordered.Load(),
		Partitioned: inj.partitioned.Load(),
	}
}

// decide assigns a fate to one n-byte frame traveling from -> to.
func (inj *injector) decide(from, to string, n int) Decision {
	if s := inj.plan.Script; s != nil {
		if d := s(from, to, n); d != nil {
			inj.count(*d)
			return *d
		}
	}
	if inj.inPartition(from, to) {
		inj.partitioned.Inc()
		return Decision{Drop: true}
	}
	lf, ok := inj.plan.Links[to]
	if !ok {
		lf = inj.plan.Default
	}
	if lf == (LinkFaults{}) {
		return Decision{}
	}
	// Always burn the same number of draws per frame so one link's fault
	// probabilities do not shift another fault type's stream.
	inj.mu.Lock()
	rng := inj.linkRNG(from, to)
	pDrop, pDup, pDelay, pReorder := rng.Float64(), rng.Float64(), rng.Float64(), rng.Float64()
	inj.mu.Unlock()

	var d Decision
	switch {
	case pDrop < lf.DropProb:
		d.Drop = true
	case pReorder < lf.ReorderProb:
		d.Hold = true
		d.HoldFor = lf.ReorderHold
		if d.HoldFor <= 0 {
			d.HoldFor = time.Millisecond
		}
	default:
		if pDup < lf.DupProb {
			d.Dup = true
		}
	}
	if !d.Drop && pDelay < lf.DelayProb {
		d.Delay = lf.DelaySpike
	}
	inj.count(d)
	return d
}

func (inj *injector) count(d Decision) {
	if d.Drop {
		inj.dropped.Inc()
	}
	if d.Dup {
		inj.duplicated.Inc()
	}
	if d.Delay > 0 {
		inj.delayed.Inc()
	}
	if d.Hold {
		inj.reordered.Inc()
	}
}

// linkRNG returns the directed link's generator; callers hold inj.mu.
func (inj *injector) linkRNG(from, to string) *rand.Rand {
	key := from + ">" + to
	rng := inj.rngs[key]
	if rng == nil {
		h := fnv.New64a()
		h.Write([]byte(key))
		rng = rand.New(rand.NewSource(inj.plan.Seed ^ int64(h.Sum64())))
		inj.rngs[key] = rng
	}
	return rng
}

// inPartition reports whether from -> to is inside an active partition
// window.
func (inj *injector) inPartition(from, to string) bool {
	if len(inj.plan.Partitions) == 0 {
		return false
	}
	el := inj.clk.Since(inj.t0)
	for _, p := range inj.plan.Partitions {
		if el >= p.Start && el < p.End && hostMatch(p.From, from) && hostMatch(p.To, to) {
			return true
		}
	}
	return false
}

func hostMatch(pat, host string) bool { return pat == "*" || pat == host }
