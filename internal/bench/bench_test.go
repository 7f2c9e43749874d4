package bench

import (
	"bytes"
	"fmt"
	"testing"

	"redbud/internal/workload"
)

// smokeOptions is small enough for CI but large enough that the shapes of
// the paper's figures emerge.
func smokeOptions() Options {
	o := DefaultOptions()
	o.Clients = 3
	o.Scale = 0.005
	o.SizeFactor = 0.15
	return o
}

func TestBuildAndCloseAllSystems(t *testing.T) {
	opt := TestOptions()
	for _, sys := range []System{SysPVFS2, SysNFS3, SysRedbud, SysRedbudDC, SysRedbudDCSD} {
		c := Build(sys, opt)
		if len(c.Mounts) != opt.Clients {
			t.Fatalf("%s: %d mounts", sys, len(c.Mounts))
		}
		c.Close()
	}
}

func TestRunDistributedAggregates(t *testing.T) {
	opt := TestOptions()
	c := Build(SysRedbudDCSD, opt)
	defer c.Close()
	spec := workload.Xcdn(32<<10, 1)
	spec.Threads = 2
	spec.OpsPerThread = 10
	spec.PrefillPerThread = 2
	res, err := RunDistributed(c, spec)
	if err != nil {
		t.Fatal(err)
	}
	if res.Errors > 0 {
		t.Fatalf("%d errors", res.Errors)
	}
	wantOps := int64(opt.Clients * 2 * 10)
	if res.Ops != wantOps {
		t.Fatalf("ops = %d, want %d", res.Ops, wantOps)
	}
	if res.Duration <= 0 || res.Throughput() <= 0 {
		t.Fatalf("duration %v", res.Duration)
	}
}

func TestSystemStrings(t *testing.T) {
	for _, sys := range []System{SysPVFS2, SysNFS3, SysRedbud, SysRedbudDC, SysRedbudDCSD} {
		if sys.String() == "?" {
			t.Fatalf("system %d unnamed", sys)
		}
	}
	if System(99).String() != "?" {
		t.Fatal("unknown system named")
	}
}

// TestFig4Shape checks the headline mechanism: delayed commit introduces
// I/O merges, and space delegation does not lose them.
//
// Departure from the paper (EXPERIMENTS.md, Figure 4): the paper's delayed
// commit still allocates on the application thread, one extent per write, so
// only space delegation lays a file's pages out side by side (2.8–5.9×
// the merges). Here write-behind allocation asks for a file's accumulated
// run in one layout-get and issues its pages together, so plain delayed
// commit merges nearly as well; what space delegation still buys is fewer
// dispatches and fewer seeks per dispatch, which TestFig5Panels pins.
func TestFig4Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("cluster experiment")
	}
	rows, err := Fig4(smokeOptions())
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	PrintFig4(&buf, rows)
	t.Log("\n" + buf.String())
	for _, r := range rows {
		orig, dc, sd := r.Ratio[SysRedbud], r.Ratio[SysRedbudDC], r.Ratio[SysRedbudDCSD]
		// Original Redbud: application threads serialize their own
		// ordered writes, so merges are rare accidents of inter-thread
		// adjacency (the paper reports ~none).
		if orig > 0.2 {
			t.Errorf("size %d: original Redbud merge ratio %.3f too high", r.FileSize, orig)
		}
		if dc <= orig {
			t.Errorf("size %d: delayed commit (%.3f) does not add merges over original (%.3f)", r.FileSize, dc, orig)
		}
		if sd < dc {
			t.Errorf("size %d: space delegation (%.3f) merges less than delayed commit (%.3f)", r.FileSize, sd, dc)
		}
	}
}

// TestFig7Shape checks that compounding pays most with few server daemons.
func TestFig7Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("cluster experiment")
	}
	opt := smokeOptions()
	opt.SizeFactor = 0.1
	cells, err := Fig7(opt)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	PrintFig7(&buf, cells)
	t.Log("\n" + buf.String())
	get := func(d, k int) float64 {
		for _, c := range cells {
			if c.Daemons == d && c.Degree == k {
				return c.PerClient
			}
		}
		t.Fatalf("missing cell %d/%d", d, k)
		return 0
	}
	// At smoke scale the MDS is not loaded enough for the compounding win
	// (or the daemon sweep) to separate from scheduler noise — the
	// full-scale run recorded in EXPERIMENTS.md is the evidence for the
	// shape. Here: every cell of the sweep must have been measured.
	for _, d := range []int{1, 8, 16} {
		for _, k := range []int{1, 3, 6} {
			if get(d, k) <= 0 {
				t.Errorf("cell daemons=%d degree=%d empty", d, k)
			}
		}
	}
}

func TestFig6Traces(t *testing.T) {
	if testing.Short() {
		t.Skip("cluster experiment")
	}
	opt := smokeOptions()
	opt.SizeFactor = 0.2
	traces, err := Fig6(opt)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	PrintFig6(&buf, traces)
	t.Log("\n" + buf.String())
	if len(traces) != 4 {
		t.Fatalf("traces = %d", len(traces))
	}
	for _, tr := range traces {
		if tr.Threads.Len() == 0 || tr.QueueLen.Len() == 0 {
			t.Errorf("%s: empty series", tr.Workload)
		}
		if tr.MaxThr < 1 {
			t.Errorf("%s: no threads observed", tr.Workload)
		}
	}
}

func TestFig5Panels(t *testing.T) {
	if testing.Short() {
		t.Skip("cluster experiment")
	}
	opt := smokeOptions()
	opt.SizeFactor = 0.1
	panels, err := Fig5(opt)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	PrintFig5(&buf, panels)
	t.Log("\n" + buf.String())
	if len(panels) != 6 {
		t.Fatalf("panels = %d", len(panels))
	}
	// Space delegation must cut seek distance per dispatch vs original
	// at 32 KiB (the paper's "few seek operations" panel c).
	seekRate := func(sys System) float64 {
		for _, p := range panels {
			if p.System == sys && p.FileSize == 32<<10 {
				if p.Summary.Dispatches == 0 {
					return 0
				}
				return float64(p.Summary.SeekBytes) / float64(p.Summary.Dispatches)
			}
		}
		t.Fatalf("panel for %v missing", sys)
		return 0
	}
	if sd, orig := seekRate(SysRedbudDCSD), seekRate(SysRedbud); sd >= orig {
		t.Errorf("delegation seek bytes/dispatch %.0f not below original %.0f", sd, orig)
	}
	// With write-behind allocation delayed commit merges almost as well as
	// space delegation (Figure 4); what delegation still buys is locality
	// across files — fewer dispatches, and fewer of them moving the head.
	at32k := func(sys System) (dispatches int, seeksPerDispatch float64) {
		for _, p := range panels {
			if p.System == sys && p.FileSize == 32<<10 && p.Summary.Dispatches > 0 {
				return p.Summary.Dispatches, float64(p.Summary.Seeks) / float64(p.Summary.Dispatches)
			}
		}
		t.Fatalf("panel for %v missing or empty", sys)
		return 0, 0
	}
	dcDisp, dcSeeks := at32k(SysRedbudDC)
	sdDisp, sdSeeks := at32k(SysRedbudDCSD)
	if sdDisp >= dcDisp {
		t.Errorf("delegation dispatches %d not below delayed commit's %d", sdDisp, dcDisp)
	}
	if sdSeeks >= dcSeeks {
		t.Errorf("delegation seeks/dispatch %.3f not below delayed commit's %.3f", sdSeeks, dcSeeks)
	}
	for _, p := range panels {
		if len(p.Series) == 0 {
			t.Errorf("%v/%s: empty seek series", p.System, sizeLabel(p.FileSize))
		}
	}
}

func ExamplePrintFig7() {
	PrintFig7(new(bytes.Buffer), nil)
	fmt.Println("ok")
	// Output: ok
}

// TestBTConflictReadsAcrossSystems runs the NPB BT-IO benchmark — with its
// built-in byte-exact verification of the interleaved multi-rank writes —
// on every system. This is the paper's "conflict operations" correctness
// claim: delayed commit must not corrupt reads of freshly written data.
func TestBTConflictReadsAcrossSystems(t *testing.T) {
	opt := TestOptions()
	spec := workload.BTSpec{Ranks: 4, Steps: 6, BlockSize: 32 << 10, Seed: 3}
	for _, sys := range []System{SysPVFS2, SysNFS3, SysRedbud, SysRedbudDC, SysRedbudDCSD} {
		c := Build(sys, opt)
		res, err := RunBTDistributed(c, spec)
		c.Close()
		if err != nil {
			t.Fatalf("%s: %v", sys, err)
		}
		if res.BytesRead != spec.FileSize() {
			t.Fatalf("%s: verified %d of %d bytes", sys, res.BytesRead, spec.FileSize())
		}
	}
}

// minShardSpeedup is the floor on the 4-shard/1-shard commit-throughput
// ratio. A working multi-MDS partition scales near-linearly up to four shards
// at this committer population (observed well above 3x); the floor is the
// acceptance bar, so only a sharding path that has collapsed back to a shared
// bottleneck — one journal, one daemon pool, a global lock — trips it.
const minShardSpeedup = 2.0

// checkShardSpeedup holds the figure's 4-shard row (rows are shards 1, 2, 4,
// 8) to minShardSpeedup times its 1-shard row.
func checkShardSpeedup(rows []ShardsRow) error {
	one, four := rows[0].CommitsPerSec, rows[2].CommitsPerSec
	if one <= 0 || four/one < minShardSpeedup {
		return fmt.Errorf("sharding speedup %.2fx at 4 shards < required %.1fx (1 shard %.0f/s vs 4 shards %.0f/s)",
			four/one, minShardSpeedup, one, four)
	}
	return nil
}

// TestFigShardsShape runs the namespace-sharding figure at smoke scale. The
// headline property is checked here too: four shards — four journals, four
// daemon pools, no shared lock — must at least double single-shard commit
// throughput. The observed scaling is well above the floor, so the assertion
// survives scheduler noise at this scale.
func TestFigShardsShape(t *testing.T) {
	if testing.Short() {
		t.Skip("cluster experiment")
	}
	opt := smokeOptions()
	opt.SizeFactor = 0.1
	rows, err := FigShards(opt)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	PrintFigShards(&buf, rows)
	t.Log("\n" + buf.String())
	if len(rows) != 4 {
		t.Fatalf("got %d rows, want 4 (shards 1, 2, 4, 8)", len(rows))
	}
	for i, want := range []int{1, 2, 4, 8} {
		r := rows[i]
		if r.Shards != want {
			t.Fatalf("row %d is shards=%d, want %d", i, r.Shards, want)
		}
		if r.Commits <= 0 || r.CommitsPerSec <= 0 || r.MeanUS <= 0 {
			t.Errorf("empty measurement: %+v", r)
		}
	}
	if err := checkShardSpeedup(rows); err != nil {
		t.Error(err)
	}
}

// TestShardsFloorRejectsFlatFigure: a sweep whose 4-shard row equals its
// 1-shard row — a sharding path serialized on a shared resource — fails.
func TestShardsFloorRejectsFlatFigure(t *testing.T) {
	var rows []ShardsRow
	for _, n := range []int{1, 2, 4, 8} {
		rows = append(rows, ShardsRow{Shards: n, Commits: 1200, CommitsPerSec: 120, MeanUS: 26000, Speedup: 1})
	}
	if err := checkShardSpeedup(rows); err == nil {
		t.Error("shards floor passed a figure whose 4-shard row equals its 1-shard row")
	}
	rows[2].CommitsPerSec = 3.5 * rows[0].CommitsPerSec
	if err := checkShardSpeedup(rows); err != nil {
		t.Errorf("shards floor rejected a 3.5x figure: %v", err)
	}
}
