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
	opt := DefaultOptions()
	opt.Scale = 1
	opt.SizeFactor = 0.2
	opt.Clients = 2
	specs := []workload.Spec{
		workload.Xcdn(32<<10, opt.Seed).Scale(opt.SizeFactor),
		workload.Varmail(opt.Seed).Scale(opt.SizeFactor),
	}
	for _, spec := range specs {
		for _, sys := range fig4Systems {
			var ops [2]float64
			for run := range ops {
				var err error
				runtime.GC()
				synctest.Run(func() {
					c := Build(sys, opt)
					defer c.Close()
					res, rerr := RunDistributed(c, spec)
					if rerr == nil && res.Errors > 0 {
						t.Errorf("%s on %s: %d op errors", spec.Name, sys, res.Errors)
					}
					ops[run], err = res.Throughput(), rerr
				})
				if err != nil {
					t.Fatalf("%s on %s: %v", spec.Name, sys, err)
				}
			}
			t.Logf("%-10s %-13s %10.2f %10.2f ops/s", spec.Name, sys, ops[0], ops[1])
			if d := math.Abs(ops[0]-ops[1]) / math.Max(ops[0], ops[1]); d > virtualTolerance {
				t.Errorf("%s on %s: runs differ by %.2f %% (%.2f vs %.2f ops/s), more than %.1f %%",
					spec.Name, sys, 100*d, ops[0], ops[1], 100*virtualTolerance)
			}
			pin := modeledLedger[spec.Name+" "+sys.String()]
			for _, got := range ops {
				if d := math.Abs(got-pin) / pin; !(d <= virtualTolerance) {
					t.Errorf("%s on %s: %.2f ops/s is %.2f %% from the pinned %.2f, more than %.1f %%",
						spec.Name, sys, got, 100*d, pin, 100*virtualTolerance)
				}
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
