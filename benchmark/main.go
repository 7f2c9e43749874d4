// Command benchmark is the repository's benchmark: it drives an in-process
// Redbud cluster through its public API with a seeded, closed-loop load
// generator, checks every byte it wrote, and prints end-to-end metrics
// (untraced run) or the per-layer breakdown (traced run). See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"
)

func main() { os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr)) }

// config is one invocation's settings.
type config struct {
	seed    int64
	seconds int
	trace   bool
	// quick shrinks everything (≈200 ops, one set-up, short calibration and
	// ledger) so tests can cover every code path in seconds.
	quick   bool
	corrupt bool
}

const quickOps = 200

func (c config) totalOps(w *workload) int {
	if c.quick {
		return quickOps
	}
	return w.OpsPerSecond * c.seconds
}

func realMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var cfg config
	name := fs.String("workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
	all := fs.Bool("all", false, "run every workload")
	sets := fs.Int("sets", 1, "with -all: run the workloads this many times and compare the end-to-end metrics of the sets")
	trace := fs.Int("trace", 0, "0: untraced run, end-to-end metrics; 1: traced run, per-layer metrics")
	fs.Int64Var(&cfg.seed, "seed", 1, "seed of the op stream and file contents")
	fs.IntVar(&cfg.seconds, "seconds", 10, "length of the measured window at the throughput the benchmark was defined at")
	fs.BoolVar(&cfg.quick, "quick", false, "tiny run for tests")
	fs.BoolVar(&cfg.corrupt, "inject-mismatch", false, "corrupt one file before the read-back gate (tests)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	cfg.trace = *trace == 1
	if fs.NArg() > 0 || (*trace != 0 && *trace != 1) || cfg.seconds < 1 || *sets < 1 || (*name == "") == !*all {
		fmt.Fprintln(stderr, "usage: benchmark (-workload <name> | -all [-sets n]) [-seed n] [-seconds n] [-trace 0|1]")
		return 2
	}

	if *all {
		return runAll(cfg, *sets, stdout, stderr)
	}
	w, err := findWorkload(*name)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}
	res, err := measure(w, cfg)
	if err != nil {
		fmt.Fprintf(stderr, "%s: FAILED: %v\n", w.Name, err)
		return 1
	}
	res.print(stdout)
	if err := res.printJSON(stdout); err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	return 0
}

func workloadNames() []string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.Name)
	}
	return names
}

// result is one workload's measured metrics, ready to print.
type result struct {
	w         *workload
	cfg       config
	attempted int
	calib     []float64 // clock.Real(1) sleep p50 per sleepAsks entry, µs
	cpuUtil   float64   // host CPU seconds per wall second of the untraced window
	gateWall  time.Duration
	samples   [numOpKinds]int
	endToEnd  map[string]float64
	perLayer  map[string]float64 // traced runs only
	shares    string             // traced runs only: commit-path self-time table
	invalid   []string           // reasons the numbers must not be used
	// traceBroken is set when the span ring wrapped or the commit legs do not
	// sum: the per-layer numbers are then wrong, not merely noisy.
	traceBroken bool
}

// windows is how many independent clusters an untraced run measures, each
// with its own op stream and a fifth of the ops. A cluster settles into a
// regime (which threads convoy behind which disk and commit daemon) that
// lasts as long as it lives: identical 5 s and 10 s runs of xcdn32k-dc both
// ranged over 9 % in ops_per_s, and four clusters inside one process
// differed as much as four processes did. Pooling several short windows
// averages over regimes where one long window cannot. setup_s is the median
// of the windows' set-ups.
const windows = 5

// measureWindows runs o's ops split over n fresh clusters and pools, into
// the first window's stats, what the end-to-end metrics need (the counters
// stay the first window's); it also returns the median set-up time.
func measureWindows(o runOpts, n int) (*runStats, time.Duration, error) {
	o.ops /= n
	o.gateFiles /= n
	var pooled *runStats
	var setups []time.Duration
	for i := 0; i < n; i++ {
		st, err := run(o)
		if err != nil {
			return nil, 0, err
		}
		setups = append(setups, st.SetupWall)
		if pooled == nil {
			pooled = st
		} else {
			pooled.Ops += st.Ops
			pooled.Virtual += st.Virtual
			pooled.Wall += st.Wall
			pooled.GateWall += st.GateWall
			pooled.Host.CPU += st.Host.CPU
			for k := range st.Lat {
				pooled.Lat[k] = append(pooled.Lat[k], st.Lat[k]...)
			}
		}
		o.seed++
		runtime.GC()
	}
	return pooled, percentile(setups, 0.50), nil
}

// measure runs one workload once, untraced or traced.
func measure(w *workload, cfg config) (*result, error) {
	res := &result{w: w, cfg: cfg}
	// Seeds of consecutive runs must not share windows' derived seeds.
	o := runOpts{w: w, seed: cfg.seed * windows, ops: cfg.totalOps(w), gateFiles: defaultGateFiles, corrupt: cfg.corrupt}
	sleeps := 60
	if cfg.quick {
		sleeps, o.gateFiles = 10, 16
	} else if cfg.trace {
		sleeps = 300
	}
	res.calib = calibrateClock(sleeps)

	n := windows
	if cfg.trace || cfg.quick {
		// One window. A traced run splits it: same seed, half the ops each;
		// the untraced half supplies the counters and the reference
		// throughput, the traced half the spans.
		n = 1
		if cfg.trace {
			o.ops /= 2
		}
	}
	base, setup, err := measureWindows(o, n)
	if err != nil {
		return nil, err
	}
	res.attempted, res.gateWall = base.Ops, base.GateWall
	for k := range base.Lat {
		res.samples[k] = len(base.Lat[k])
	}
	res.endToEnd = endToEnd(base, setup)
	if res.cpuUtil = base.cpuUtil(); res.cpuUtil > cpuUtilLimit {
		res.invalid = append(res.invalid, fmt.Sprintf("host.cpu_util %.2f > %.2f: the scheduler, not the model, set virtual time", res.cpuUtil, cpuUtilLimit))
	}
	if !cfg.trace {
		return res, nil
	}

	res.perLayer = counterLayers(base)
	runtime.GC()
	o.trace = true
	traced, err := run(o)
	if err != nil {
		return nil, err
	}
	res.attempted += traced.Ops
	layers, breakdown, invalid := traceLayers(traced)
	for k, v := range layers {
		res.perLayer[k] = v
	}
	res.invalid = append(res.invalid, invalid...)
	res.traceBroken = len(invalid) > 0
	res.shares = breakdown.Table()
	res.perLayer["obs.trace_overhead_pct"] = 100 * (base.opsPerSecond() - traced.opsPerSecond()) / base.opsPerSecond()
	for i, ask := range sleepAsks {
		res.perLayer[fmt.Sprintf("clock.sleep_p50_us_ask%d", ask.Microseconds())] = res.calib[i]
	}
	ledgerScale := 1
	if cfg.quick {
		ledgerScale = 100
	}
	costs, err := runLedger(ledgerScale)
	if err != nil {
		return nil, err
	}
	for k, v := range costs {
		res.perLayer[k] = v
	}
	return res, nil
}

func (r *result) header(w io.Writer) {
	mode := "untraced"
	if r.cfg.trace {
		mode = "traced (untraced half + traced half)"
	}
	fmt.Fprintf(w, "# %s  seed=%d  ops=%d  %s  GOMAXPROCS=%d\n", r.w.Name, r.cfg.seed, r.attempted, mode, runtime.GOMAXPROCS(0))
	fmt.Fprintf(w, "# clock.Real(1) sleep p50:")
	for i, ask := range sleepAsks {
		fmt.Fprintf(w, "  ask %v -> %.0f us", ask, r.calib[i])
	}
	fmt.Fprintln(w)
	fmt.Fprintf(w, "# host wall: set-up %.2f s (median), window %.2f s at host.cpu_util %.2f, correctness gate %.2f s\n",
		r.endToEnd["setup_s"], r.endToEnd["sim_wall_s"], r.cpuUtil, r.gateWall.Seconds())
	fmt.Fprintf(w, "# samples:")
	for k, n := range r.samples {
		if n > 0 {
			fmt.Fprintf(w, "  %s=%d", opNames[k], n)
		}
	}
	fmt.Fprintln(w)
	for _, why := range r.invalid {
		fmt.Fprintf(w, "# INVALID: %s\n", why)
	}
}

// print writes the human-readable report: every metric by name with its unit.
func (r *result) print(w io.Writer) {
	r.header(w)
	table := func(defs []metricDef, vals map[string]float64) {
		for _, d := range defs {
			fmt.Fprintf(w, "%-34s %14.4f %s\n", d.Name, vals[d.Name], d.Unit)
		}
	}
	table(endToEndDefs, r.endToEnd)
	if r.perLayer != nil {
		fmt.Fprintln(w, "# per layer")
		table(perLayerDefs, r.perLayer)
		fmt.Fprintln(w, "# commit critical path of the traced half")
		fmt.Fprint(w, r.shares)
	}
}

// printJSON writes the driver's result line: the end-to-end metrics of an
// untraced run, the per-layer metrics of a traced one.
func (r *result) printJSON(w io.Writer) error {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	defs, vals := endToEndDefs, r.endToEnd
	if r.cfg.trace {
		defs, vals = perLayerDefs, r.perLayer
	}
	metrics := make(map[string]value, len(defs))
	for _, d := range defs {
		v, ok := vals[d.Name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("metric %s was not measured", d.Name)
		}
		metrics[d.Name] = value{v, d.Unit}
	}
	line, err := json.Marshal(map[string]any{
		"correct":   !r.traceBroken, // outputs were verified or the run printed nothing (README: validity)
		"attempted": r.attempted,
		"failed":    0, // a run with a failed op prints no result at all
		"metrics":   metrics,
	})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}

// runAll runs every workload sets times. With one set it prints each report;
// with more it is the agreement check: two sets of runs of the same code must
// give end-to-end metrics within the benchmark's own bounds of each other.
func runAll(cfg config, sets int, stdout, stderr io.Writer) int {
	got := make(map[string][]*result) // workload → one result per set
	for s := 0; s < sets; s++ {
		for i := range workloads {
			w := &workloads[i]
			start := time.Now()
			res, err := measure(w, cfg)
			if err != nil {
				fmt.Fprintf(stderr, "%s: FAILED: %v\n", w.Name, err)
				return 1
			}
			fmt.Fprintf(stderr, "set %d %s done in %.1fs\n", s+1, w.Name, time.Since(start).Seconds())
			got[w.Name] = append(got[w.Name], res)
			if sets == 1 {
				res.print(stdout)
				fmt.Fprintln(stdout)
			}
		}
	}
	if sets == 1 {
		return 0
	}
	return agreement(got, stdout)
}

// agreement prints, per workload and end-to-end metric, every set's value,
// the largest relative difference between sets and the bound, and returns 1
// if any difference exceeds its bound or any run was invalid.
func agreement(got map[string][]*result, w io.Writer) int {
	code := 0
	for _, wl := range workloads {
		results := got[wl.Name]
		results[0].header(w)
		for _, d := range endToEndDefs {
			vals := make([]float64, len(results))
			for i, r := range results {
				vals[i] = r.endToEnd[d.Name]
			}
			sorted := append([]float64(nil), vals...)
			sort.Float64s(sorted)
			diff := (sorted[len(sorted)-1] - sorted[0]) / sorted[0]
			verdict := "ok"
			if diff > d.Bound {
				verdict = "DISAGREE"
				code = 1
			}
			fmt.Fprintf(w, "%-14s %-4s", d.Name, d.Unit)
			for _, v := range vals {
				fmt.Fprintf(w, " %12.4f", v)
			}
			fmt.Fprintf(w, "   diff %5.2f%%  bound %4.1f%%  %s\n", 100*diff, 100*d.Bound, verdict)
		}
		for i, r := range results {
			fmt.Fprintf(w, "set %d: attempted %d, failed 0, host.cpu_util %.3f, valid %v\n", i+1, r.attempted, r.cpuUtil, len(r.invalid) == 0)
			if len(r.invalid) > 0 {
				code = 1
			}
		}
		fmt.Fprintln(w)
	}
	return code
}
