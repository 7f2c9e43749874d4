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

// modeledLedger pins every cell, in ops/s, to within virtualTolerance. A change
// that moves modeled time fails here until it updates the pins on purpose and
// says why.
//
// The pins depend on alloc.NewShardAGSet's group order (EXPERIMENTS.md gives
// the cells under both orders). Interleaved by disk, two clients' chunks
// stream to two disks: listed disk by disk they shared dev0's two halves, and
// the +dc+sd cells ran at a half and an eighth of these. The xcdn-32K
// redbud+dc cell does not depend on the order.
var modeledLedger = map[string]float64{
	"xcdn-32K redbud":       270.72,
	"xcdn-32K redbud+dc":    10413,
	"xcdn-32K redbud+dc+sd": 8700,
	"varmail redbud":        748.06,
	"varmail redbud+dc":     2882.42,
	"varmail redbud+dc+sd":  14448.73,
}

// TestVirtualModeledLedger is the modeled-time ledger: xcdn-32K and varmail
// on the three Redbud configurations, each run twice in exact virtual time
// (testing/synctest). It prints the cells, so a change that claims a host-CPU
// saving can show its modeled cost did not move, and fails if a cell's two
// runs differ by more than virtualTolerance or a run strays that far from the
// cell's pin in modeledLedger. Run it as
//
//	GOEXPERIMENT=synctest GODEBUG=asynctimerchan=0 GOMAXPROCS=1 \
//	  go test ./internal/bench -run Virtual -v
func TestVirtualModeledLedger(t *testing.T) {
	// The collector runs outside the bubble, and when it preempts a run's
	// goroutines depends on the host: it reorders same-instant work (two runs
	// of varmail redbud+dc differed by 6.6 % with it on). Each run starts on
	// a collected heap and allocates without collection (under 90 MB).
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	opt := ledgerOptions()
	specs := []workload.Spec{
		workload.Xcdn(32<<10, opt.Seed).Scale(opt.SizeFactor),
		workload.Varmail(opt.Seed).Scale(opt.SizeFactor),
	}
	for _, spec := range specs {
		for _, sys := range fig4Systems {
			cell := spec.Name + " " + sys.String()
			runVirtualCell(t, cell, sys, opt, spec, modeledLedger[cell])
		}
	}
}

// ledgerOptions is the ledger's operating point: 2 clients, SizeFactor 0.2,
// modeled time unscaled.
func ledgerOptions() Options {
	opt := DefaultOptions()
	opt.Scale = 1
	opt.SizeFactor = 0.2
	opt.Clients = 2
	return opt
}

// runVirtualCell runs spec on sys twice in exact virtual time, prints both
// runs' ops/s, fails if they differ by more than virtualTolerance, if a run
// had op errors, or if a run strays that far from pin, and returns the first
// run's ops/s. The caller turns the collector off (see
// TestVirtualModeledLedger).
func runVirtualCell(t *testing.T, cell string, sys System, opt Options, spec workload.Spec, pin float64) float64 {
	t.Helper()
	var ops [2]float64
	for run := range ops {
		var err error
		runtime.GC()
		synctest.Run(func() {
			c := Build(sys, opt)
			defer c.Close()
			res, rerr := RunDistributed(c, spec)
			if rerr == nil && res.Errors > 0 {
				t.Errorf("%s: %d op errors", cell, res.Errors)
			}
			ops[run], err = res.Throughput(), rerr
		})
		if err != nil {
			t.Fatalf("%s: %v", cell, err)
		}
	}
	t.Logf("%-42s %10.2f %10.2f ops/s", cell, ops[0], ops[1])
	if d := math.Abs(ops[0]-ops[1]) / math.Max(ops[0], ops[1]); d > virtualTolerance {
		t.Errorf("%s: runs differ by %.2f %% (%.2f vs %.2f ops/s), more than %.1f %%",
			cell, 100*d, ops[0], ops[1], 100*virtualTolerance)
	}
	for _, got := range ops {
		if d := math.Abs(got-pin) / pin; !(d <= virtualTolerance) {
			t.Errorf("%s: %.2f ops/s is %.2f %% from the pinned %.2f, more than %.1f %%",
				cell, got, 100*d, pin, 100*virtualTolerance)
		}
	}
	return ops[0]
}

// ablationFloor is how far a kept ablation knob must move its pinned cell
// from the default: a knob that moves no cell by more is folded or deleted.
const ablationFloor = 0.10

// modeledAblations pins each kept ablation knob, in ops/s at the ledger's
// operating point, on a cell where it moves throughput by more than
// ablationFloor, beside that cell's default ("default" knob). The +dc+sd
// defaults are the ledger's own cells. CommitEvenIfClean moves xcdn-32K
// +dc+sd too (to 6 760–6 920 ops/s), but two runs of that cell differ by up
// to 1.5 %, so it is pinned on varmail only.
var modeledAblations = []struct {
	workload string
	sys      System
	knob     string
	pin      float64
}{
	{"xcdn-32K", SysRedbudDCSD, "default", 8700},
	{"xcdn-32K", SysRedbudDCSD, "DisableMerge", 2244.59},
	{"varmail", SysRedbudDCSD, "default", 14448.73},
	{"varmail", SysRedbudDCSD, "CommitEvenIfClean", 11166.23},
	{"varmail", SysRedbudDCSD, "DisableMerge", 6410.35},
	{"webproxy", SysRedbudDC, "default", 14905.60},
	{"webproxy", SysRedbudDC, "FixedCommitThreads=1", 17830},
	{"fileserver", SysRedbudDC, "default", 4300.38},
	{"fileserver", SysRedbudDC, "FixedCommitThreads=1", 5079},
}

// TestVirtualAblations pins the three ablation knobs the cluster keeps —
// CommitEvenIfClean (no per-file commit-queue dedup), FixedCommitThreads (a
// pinned commit pool instead of the adaptive one) and DisableMerge (no
// device request merging) — each on a cell of modeledAblations, run twice in
// exact virtual time like the ledger, and fails unless the knob moves the
// cell's ops/s by more than ablationFloor from the cell's default.
func TestVirtualAblations(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	specs := map[string]func(int64) workload.Spec{
		"xcdn-32K":   func(seed int64) workload.Spec { return workload.Xcdn(32<<10, seed) },
		"varmail":    workload.Varmail,
		"webproxy":   workload.Webproxy,
		"fileserver": workload.Fileserver,
	}
	defaults := map[string]float64{}
	for _, a := range modeledAblations {
		opt := ledgerOptions()
		switch a.knob {
		case "CommitEvenIfClean":
			opt.CommitEvenIfClean = true
		case "DisableMerge":
			opt.DisableMerge = true
		case "FixedCommitThreads=1":
			opt.FixedCommitThreads = 1
		}
		spec := specs[a.workload](opt.Seed).Scale(opt.SizeFactor)
		cell := fmt.Sprintf("%s %s %s", a.workload, a.sys, a.knob)
		got := runVirtualCell(t, cell, a.sys, opt, spec, a.pin)
		base := a.workload + " " + a.sys.String()
		if a.knob == "default" {
			defaults[base] = got
			continue
		}
		if move := math.Abs(got-defaults[base]) / defaults[base]; !(move > ablationFloor) {
			t.Errorf("%s moves ops/s %.1f %% from the default %.2f, not more than %.0f %%",
				cell, 100*move, defaults[base], 100*ablationFloor)
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
	opt := ledgerOptions()
	opt.SizeFactor = 1
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

// modeledFigures pins Figures 4 and 5 in exact virtual time at the paper's 7
// clients: per file size and system, Figure 4's merge ratio and, at the two
// sizes Figure 5 plots, its dispatches and seeks per dispatch. A cell may
// stray from its pin by virtualTolerance of the pin or of 1, whichever is
// larger (a ratio near zero is held to 0.007 absolute).
var modeledFigures = map[string]float64{
	"32KB redbud merge":                0.7524,
	"32KB redbud dispatches":           2779,
	"32KB redbud seeks/dispatch":       0.5110,
	"32KB redbud+dc merge":             0.9903,
	"32KB redbud+dc dispatches":        109,
	"32KB redbud+dc seeks/dispatch":    0.1468,
	"32KB redbud+dc+sd merge":          0.9941,
	"32KB redbud+dc+sd dispatches":     66,
	"32KB redbud+dc+sd seeks/dispatch": 0.0455,
	"64KB redbud merge":                0.7545,
	"64KB redbud+dc merge":             0.9926,
	"64KB redbud+dc+sd merge":          0.9958,
	"1MB redbud merge":                 0.7037,
	"1MB redbud dispatches":            1517,
	"1MB redbud seeks/dispatch":        0.2887,
	"1MB redbud+dc merge":              0.9375,
	"1MB redbud+dc dispatches":         320,
	"1MB redbud+dc seeks/dispatch":     0.1250,
	"1MB redbud+dc+sd merge":           0.9375,
	"1MB redbud+dc+sd dispatches":      320,
	"1MB redbud+dc+sd seeks/dispatch":  0.0125,
}

// TestVirtualFigures45 runs Figures 4 and 5 — xcdn at 32 KiB, 64 KiB and
// 1 MiB on the three Redbud configurations, 7 clients, blktrace on — in exact
// virtual time, one cell at a time, prints every cell, and fails if one
// strays from its pin in modeledFigures. The ledger's command runs it too.
func TestVirtualFigures45(t *testing.T) {
	// As in the ledger: each cell starts on a collected heap and allocates
	// without collection.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	opt := DefaultOptions()
	opt.Scale = 1
	opt.SizeFactor = 0.15
	opt.Trace = true
	for _, size := range []int64{32 << 10, 64 << 10, 1 << 20} {
		for _, sys := range fig4Systems {
			var merge, disp, perDisp float64
			var err error
			runtime.GC()
			synctest.Run(func() {
				c := Build(sys, opt)
				defer c.Close()
				var res workload.Result
				res, err = RunDistributed(c, workload.Xcdn(size, opt.Seed).Scale(opt.SizeFactor))
				if err == nil && res.Errors > 0 {
					err = fmt.Errorf("%d op errors", res.Errors)
				}
				merge = c.DeviceStats().MergeRatio()
				sum := c.Rec.Summarize()
				disp = float64(sum.Dispatches)
				if sum.Dispatches > 0 {
					perDisp = float64(sum.Seeks) / disp
				}
			})
			if err != nil {
				t.Fatalf("xcdn %s on %s: %v", sizeLabel(size), sys, err)
			}
			t.Logf("%-5s %-13s merge %.4f  dispatches %6.0f  seeks/dispatch %.4f", sizeLabel(size), sys, merge, disp, perDisp)
			cells := map[string]float64{"merge": merge}
			if size != 64<<10 {
				cells["dispatches"], cells["seeks/dispatch"] = disp, perDisp
			}
			for what, got := range cells {
				key := fmt.Sprintf("%s %s %s", sizeLabel(size), sys, what)
				pin, ok := modeledFigures[key]
				if !ok || !(math.Abs(got-pin) <= virtualTolerance*math.Max(pin, 1)) {
					t.Errorf("%s: %.4g, pinned %.4g (pinned: %v)", key, got, pin, ok)
				}
			}
		}
	}
}
