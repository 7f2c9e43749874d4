//go:build goexperiment.synctest

package bench

import (
	"fmt"
	"math"
	"runtime"
	"runtime/debug"
	"testing"
	"testing/synctest"

	"redbud/internal/workload"
)

// virtualTolerance is how far two runs of one cell may disagree. Inside the
// bubble the clock jumps to the next timer only when every goroutine is
// durably blocked, so a run costs exactly its modeled time; what is left is
// the order the scheduler picks among goroutines runnable at one instant.
const virtualTolerance = 0.007

// settleBound is the length rule: a cell is settled at length x when x → 2x
// and 2x → 4x each move it by less than this, and only a settled cell is
// pinned. One doubling is not enough: webproxy +dc moves +0.5 % from ×2 to
// ×4, then +5.9 % from ×4 to ×8. EXPERIMENTS.md "Modeled ledger, ablations
// and Figures 4–5 at settled lengths" lists the cells that do not settle.
const settleBound = 0.02

// virtualOptions is the operating point of every pinned cell: modeled time
// unscaled, SizeFactor 1.
func virtualOptions(clients int) Options {
	opt := DefaultOptions()
	opt.Scale = 1
	opt.Clients = clients
	return opt
}

// virtualSpecs are the workloads of the pinned cells, at SizeFactor 1.
var virtualSpecs = map[string]func(seed int64) workload.Spec{
	"xcdn-32K": func(seed int64) workload.Spec { return workload.Xcdn(32<<10, seed) },
	"varmail":  workload.Varmail,
}

// A virtualCell is one workload on one system with at most one ablation knob
// set, at a number of clients and a length x: OpsPerThread × x at SizeFactor
// 1, the prefill unchanged.
type virtualCell struct {
	workload string
	sys      System
	knob     string // "" is the default
	clients  int
	x        int
}

func (v virtualCell) String() string {
	knob := v.knob
	if knob == "" {
		knob = "default"
	}
	return fmt.Sprintf("%s %s %s c%d ×%d", v.workload, v.sys, knob, v.clients, v.x)
}

// opsPerSec runs the cell at length x once in exact virtual time, on a
// collected heap, and returns its ops/s. The caller turns the collector off:
// when it preempts a run's goroutines depends on the host, and it reorders
// same-instant work (one commit thread on varmail +dc at ×4 read 5 % slower
// with it on).
func (v virtualCell) opsPerSec(t *testing.T, x int) float64 {
	t.Helper()
	opt := virtualOptions(v.clients)
	switch v.knob {
	case "CommitEvenIfClean":
		opt.CommitEvenIfClean = true
	case "DisableMerge":
		opt.DisableMerge = true
	case "FixedCommitThreads=1":
		opt.FixedCommitThreads = 1
	}
	spec := virtualSpecs[v.workload](opt.Seed)
	spec.OpsPerThread *= x
	var res workload.Result
	var err error
	runtime.GC()
	synctest.Run(func() {
		c := Build(v.sys, opt)
		defer c.Close()
		res, err = RunDistributed(c, spec)
	})
	if err == nil && res.Errors > 0 {
		err = fmt.Errorf("%d op errors", res.Errors)
	}
	if err != nil {
		t.Fatalf("%s at ×%d: %v", v, x, err)
	}
	return res.Throughput()
}

// lengths runs the cell once at its length and at twice and four times it,
// and returns the three ops/s.
func (v virtualCell) lengths(t *testing.T) [3]float64 {
	t.Helper()
	var ops [3]float64
	for i := range ops {
		ops[i] = v.opsPerSec(t, v.x<<i)
	}
	return ops
}

// checkSettled fails unless each doubling of a cell's length moves its value
// (got at L, 2L and 4L) by less than settleBound.
func checkSettled(t *testing.T, cell string, got [3]float64) {
	t.Helper()
	for i := 1; i < len(got); i++ {
		if d := math.Abs(got[i]/got[i-1] - 1); !(d < settleBound) {
			t.Errorf("%s: doubling the length moves it %.2f %% (%.6g → %.6g), not less than %.0f %%: not settled",
				cell, 100*d, got[i-1], got[i], 100*settleBound)
		}
	}
}

// pinSettled runs the cell twice at its length and once each at twice and
// four times it, prints the runs, and fails if the two runs differ by more
// than virtualTolerance, if one strays that far from pin, or if the cell is
// not settled. It returns the ops/s at the three lengths.
func pinSettled(t *testing.T, v virtualCell, pin float64) [3]float64 {
	t.Helper()
	ops := v.lengths(t)
	again := v.opsPerSec(t, v.x)
	t.Logf("%-48s %10.2f %10.2f ops/s; doubled %10.2f, quadrupled %10.2f", v, ops[0], again, ops[1], ops[2])
	if d := math.Abs(ops[0]-again) / math.Max(ops[0], again); d > virtualTolerance {
		t.Errorf("%s: runs differ by %.2f %% (%.2f vs %.2f ops/s), more than %.1f %%",
			v, 100*d, ops[0], again, 100*virtualTolerance)
	}
	for _, got := range []float64{ops[0], again} {
		if d := math.Abs(got-pin) / pin; !(d <= virtualTolerance) {
			t.Errorf("%s: %.2f ops/s is %.2f %% from the pinned %.2f, more than %.1f %%",
				v, got, 100*d, pin, 100*virtualTolerance)
		}
	}
	checkSettled(t, v.String(), ops)
	return ops
}

// modeledLedger pins, in ops/s, xcdn-32K and varmail on the Redbud
// configurations at 2 clients, each at the shortest length where it settles.
// A change that moves modeled time fails here until it updates the pins on
// purpose and says why. Two cells do not settle within ×16 and are not
// pinned: xcdn-32K redbud+dc+sd and varmail redbud (EXPERIMENTS.md).
var modeledLedger = []struct {
	cell virtualCell
	pin  float64
}{
	{virtualCell{"xcdn-32K", SysRedbud, "", 2, 1}, 286.99},
	{virtualCell{"xcdn-32K", SysRedbudDC, "", 2, 2}, 13933.78},
	{virtualCell{"varmail", SysRedbudDC, "", 2, 1}, 3434.23},
	{virtualCell{"varmail", SysRedbudDCSD, "", 2, 2}, 17728.17},
}

// TestVirtualModeledLedger is the modeled-time ledger: each cell of
// modeledLedger run twice at its length in exact virtual time
// (testing/synctest), and once each at twice and four times it. It prints
// the cells, so a change that claims a host-CPU saving can show its modeled
// cost did not move, and fails if a cell's two runs differ by more than
// virtualTolerance, a run strays that far from its pin, or the cell is not
// settled. Run it as
//
//	GOEXPERIMENT=synctest GODEBUG=asynctimerchan=0 GOMAXPROCS=1 \
//	  go test ./internal/bench -run Virtual -v
func TestVirtualModeledLedger(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	for _, c := range modeledLedger {
		pinSettled(t, c.cell, c.pin)
	}
}

// ablationFloor is how far a kept ablation knob must move its pinned cell
// from the default: a knob that moves no settled cell by more is deleted.
const ablationFloor = 0.10

// modeledAblations pins each kept ablation knob, in ops/s, on a cell it
// moves by more than ablationFloor, at the cell's settled length. The
// default beside it is pinned where it settles at that length too; where it
// does not (defaultPin 0), it only runs beside the knob: xcdn-32K +dc+sd at 7
// clients still moves +2.5 % from ×4 to ×8.
var modeledAblations = []struct {
	cell       virtualCell
	pin        float64
	defaultPin float64
}{
	{virtualCell{"varmail", SysRedbudDCSD, "DisableMerge", 2, 4}, 9274.28, 17718.53},
	{virtualCell{"xcdn-32K", SysRedbudDCSD, "CommitEvenIfClean", 7, 2}, 11991.86, 0},
	{virtualCell{"xcdn-32K", SysRedbudDCSD, "FixedCommitThreads=1", 7, 2}, 15485.71, 0},
}

// TestVirtualAblations pins the three ablation knobs the cluster keeps —
// CommitEvenIfClean (no per-file commit-queue dedup), FixedCommitThreads (a
// pinned commit pool instead of the adaptive one) and DisableMerge (no
// device request merging) — each on a settled cell of modeledAblations, like
// the ledger, runs the cell's default at the same three lengths, and fails
// unless the knob moves ops/s by more than ablationFloor at each of them.
func TestVirtualAblations(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	defaults := map[virtualCell][3]float64{}
	for _, a := range modeledAblations {
		got := pinSettled(t, a.cell, a.pin)
		def := a.cell
		def.knob = ""
		base, ok := defaults[def]
		switch {
		case ok:
		case a.defaultPin > 0:
			base = pinSettled(t, def, a.defaultPin)
		default:
			base = def.lengths(t)
			t.Logf("%-48s %10.2f ops/s; doubled %10.2f, quadrupled %10.2f (not settled, not pinned)", def, base[0], base[1], base[2])
		}
		defaults[def] = base
		for i := range got {
			if move := math.Abs(got[i]-base[i]) / base[i]; !(move > ablationFloor) {
				t.Errorf("%s at ×%d moves ops/s %.1f %% from the default %.2f, not more than %.0f %%",
					a.cell, a.cell.x<<i, 100*move, base[i], 100*ablationFloor)
			}
		}
	}
}

// modeledConflictReads pins the paper's conflict read (§V-C), the BT-IO
// conflict leg of workload.RunBTConflict at 2 clients and SizeFactor 1: the
// mean time, in ms, from the writer's WriteAt returning to the reader on the
// other mount first seeing the block, which under delayed commit is when the
// writer's commit lands. EXPERIMENTS.md "Early visibility, decided in exact
// time" gives the cells the deleted early-visibility path read beside these.
var modeledConflictReads = map[System]float64{
	SysRedbudDC:   13.5426,
	SysRedbudDCSD: 7.5461,
}

// TestVirtualConflictReads runs the conflict leg on +dc and +dc+sd twice each
// in exact virtual time, like the ledger, and fails if a run has no blocks,
// if its two runs differ by more than virtualTolerance, or if a run strays
// that far from its pin in modeledConflictReads.
func TestVirtualConflictReads(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	opt := virtualOptions(2)
	spec := scaleBT(workload.DefaultBT(opt.Seed), opt.SizeFactor)
	for _, sys := range []System{SysRedbudDC, SysRedbudDCSD} {
		pin := modeledConflictReads[sys]
		var ms [2]float64
		for run := range ms {
			var res workload.ConflictResult
			var err error
			runtime.GC()
			synctest.Run(func() {
				c := Build(sys, opt)
				defer c.Close()
				res, err = workload.RunBTConflict(c.Mounts[0], c.Mounts[1], c.Clock, spec)
			})
			if err != nil {
				t.Fatalf("%s: %v", sys, err)
			}
			if res.Blocks != spec.Ranks*spec.Steps {
				t.Fatalf("%s: %d blocks read, want %d", sys, res.Blocks, spec.Ranks*spec.Steps)
			}
			ms[run] = float64(res.MeanLatency()) / 1e6
		}
		t.Logf("%-13s conflict read mean %8.4f %8.4f ms", sys, ms[0], ms[1])
		if d := math.Abs(ms[0]-ms[1]) / math.Max(ms[0], ms[1]); d > virtualTolerance {
			t.Errorf("%s: runs differ by %.2f %% (%.4f vs %.4f ms), more than %.1f %%",
				sys, 100*d, ms[0], ms[1], 100*virtualTolerance)
		}
		for _, got := range ms {
			if d := math.Abs(got-pin) / pin; !(d <= virtualTolerance) {
				t.Errorf("%s: conflict read mean %.4f ms is %.2f %% from the pinned %.4f, more than %.1f %%",
					sys, got, 100*d, pin, 100*virtualTolerance)
			}
		}
	}
}

// A figureCell is one quantity of Figures 4 and 5, read off the data devices
// in exact virtual time at the paper's 7 clients: xcdn at one file size on
// one system, SizeFactor 0.15 with OpsPerThread × x.
type figureCell struct {
	size int64
	sys  System
	what string // "merge", "dispatches/op" or "seeks/dispatch"
	x    int
}

func (f figureCell) String() string {
	return fmt.Sprintf("%s %s %s ×%d", SizeLabel(f.size), f.sys, f.what, f.x)
}

// modeledFigures pins every quantity of Figures 4 and 5 that settles by the
// length rule: per file size and system, Figure 4's merge ratio and, at the
// two sizes Figure 5 plots, its dispatches per measured op and seeks per
// dispatch. A pin holds to virtualTolerance of itself or of 1, whichever is
// larger (a ratio near zero is held to 0.007 absolute). The rest do not
// settle within ×8 (1 MB) or ×16 and are not pinned (EXPERIMENTS.md): above
// all, seeks per dispatch under delayed commit, which halves with each
// doubling under space delegation.
var modeledFigures = []struct {
	cell figureCell
	pin  float64
}{
	{figureCell{32 << 10, SysRedbud, "merge", 1}, 0.7548},
	{figureCell{32 << 10, SysRedbud, "dispatches/op", 4}, 1.4993},
	{figureCell{32 << 10, SysRedbud, "seeks/dispatch", 1}, 0.5087},
	{figureCell{32 << 10, SysRedbudDC, "merge", 1}, 0.9901},
	{figureCell{32 << 10, SysRedbudDCSD, "merge", 1}, 0.9947},
	{figureCell{64 << 10, SysRedbud, "merge", 1}, 0.7537},
	{figureCell{64 << 10, SysRedbudDC, "merge", 1}, 0.9945},
	{figureCell{64 << 10, SysRedbudDCSD, "merge", 1}, 0.9957},
	{figureCell{1 << 20, SysRedbud, "seeks/dispatch", 1}, 0.2988},
	{figureCell{1 << 20, SysRedbudDC, "merge", 1}, 0.9375},
	{figureCell{1 << 20, SysRedbudDC, "dispatches/op", 2}, 0.8095},
	{figureCell{1 << 20, SysRedbudDCSD, "merge", 1}, 0.9375},
	{figureCell{1 << 20, SysRedbudDCSD, "dispatches/op", 2}, 0.8095},
}

// TestVirtualFigures45 runs Figures 4 and 5 — xcdn at 32 KiB, 64 KiB and
// 1 MiB on the three Redbud configurations, 7 clients, blktrace on — in exact
// virtual time, once per length a cell of modeledFigures needs, prints every
// run, and fails if a cell strays from its pin or is not settled. The
// ledger's command runs it too.
func TestVirtualFigures45(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	type run struct {
		size int64
		sys  System
		x    int
	}
	runs := map[run]map[string]float64{}
	read := func(f figureCell, x int) float64 {
		key := run{f.size, f.sys, x}
		if got, ok := runs[key]; ok {
			return got[f.what]
		}
		opt := virtualOptions(7)
		opt.Trace = true
		spec := workload.Xcdn(f.size, opt.Seed).Scale(0.15)
		spec.OpsPerThread *= x
		var got map[string]float64
		var err error
		runtime.GC()
		synctest.Run(func() {
			c := Build(f.sys, opt)
			defer c.Close()
			var res workload.Result
			res, err = RunDistributed(c, spec)
			if err == nil && res.Errors > 0 {
				err = fmt.Errorf("%d op errors", res.Errors)
			}
			sum := c.Rec.Summarize()
			got = map[string]float64{
				"merge":          c.DeviceStats().MergeRatio(),
				"dispatches/op":  float64(sum.Dispatches) / float64(res.Ops),
				"seeks/dispatch": float64(sum.Seeks) / math.Max(float64(sum.Dispatches), 1),
			}
		})
		if err != nil {
			t.Fatalf("xcdn %s on %s at ×%d: %v", SizeLabel(f.size), f.sys, x, err)
		}
		t.Logf("%-5s %-13s ×%-2d merge %.4f  dispatches/op %.4f  seeks/dispatch %.4f",
			SizeLabel(f.size), f.sys, x, got["merge"], got["dispatches/op"], got["seeks/dispatch"])
		runs[key] = got
		return got[f.what]
	}
	for _, c := range modeledFigures {
		var got [3]float64
		for i := range got {
			got[i] = read(c.cell, c.cell.x<<i)
		}
		if !(math.Abs(got[0]-c.pin) <= virtualTolerance*math.Max(c.pin, 1)) {
			t.Errorf("%s: %.4g, pinned %.4g", c.cell, got[0], c.pin)
		}
		checkSettled(t, c.cell.String(), got)
	}
}
