//go:build goexperiment.synctest

package bench

import (
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
var modeledLedger = map[string]float64{
	"xcdn-32K redbud":       280.84,
	"xcdn-32K redbud+dc":    10413,
	"xcdn-32K redbud+dc+sd": 4205,
	"varmail redbud":        645.50,
	"varmail redbud+dc":     2685.43,
	"varmail redbud+dc+sd":  1778.86,
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
