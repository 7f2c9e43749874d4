package bench

import (
	"fmt"
	"io"
	"sort"
	"time"

	"redbud/internal/iotrace"
	"redbud/internal/stats"
	"redbud/internal/workload"
)

// ---------------------------------------------------------------------------
// Figure 3: throughput of the four systems on the five workloads,
// normalized to original Redbud.

// Fig3Row is one workload's results across systems.
type Fig3Row struct {
	Workload string
	Ops      map[System]float64 // ops per virtual second
	Norm     map[System]float64 // normalized to SysRedbud
}

// fig3Systems are the four configurations of Figure 3. The delayed-commit
// entry is deployed as the paper deploys it: with space delegation.
var fig3Systems = []System{SysPVFS2, SysNFS3, SysRedbud, SysRedbudDCSD}

// fig3Specs returns the workloads of Figure 3.
func fig3Specs(opt Options) []workload.Spec {
	return []workload.Spec{
		workload.Fileserver(opt.Seed).Scale(opt.SizeFactor),
		workload.Varmail(opt.Seed).Scale(opt.SizeFactor),
		workload.Webproxy(opt.Seed).Scale(opt.SizeFactor),
		workload.Xcdn(32<<10, opt.Seed).Scale(opt.SizeFactor),
		workload.Xcdn(1<<20, opt.Seed).Scale(opt.SizeFactor),
	}
}

// Fig3 regenerates the performance-comparison figure.
func Fig3(opt Options) ([]Fig3Row, error) {
	specs := fig3Specs(opt)
	rows := make([]Fig3Row, 0, len(specs)+1)
	for _, spec := range specs {
		row := Fig3Row{Workload: spec.Name, Ops: map[System]float64{}, Norm: map[System]float64{}}
		for _, sys := range fig3Systems {
			c := Build(sys, opt)
			res, err := RunDistributed(c, spec)
			c.Close()
			if err != nil {
				return nil, fmt.Errorf("fig3 %s on %s: %w", spec.Name, sys, err)
			}
			if res.Errors > 0 {
				return nil, fmt.Errorf("fig3 %s on %s: %d op errors", spec.Name, sys, res.Errors)
			}
			row.Ops[sys] = res.Throughput()
		}
		normalize(&row)
		rows = append(rows, row)
	}

	// NPB BT-IO row (throughput in MB/s of written+verified data).
	btSpec := scaleBT(workload.DefaultBT(opt.Seed), opt.SizeFactor)
	row := Fig3Row{Workload: "npb-bt", Ops: map[System]float64{}, Norm: map[System]float64{}}
	for _, sys := range fig3Systems {
		c := Build(sys, opt)
		res, err := RunBTDistributed(c, btSpec)
		c.Close()
		if err != nil {
			return nil, fmt.Errorf("fig3 npb-bt on %s: %w", sys, err)
		}
		row.Ops[sys] = res.MBps()
	}
	normalize(&row)
	return append(rows, row), nil
}

func scaleBT(s workload.BTSpec, factor float64) workload.BTSpec {
	if factor <= 0 || factor > 1 {
		return s
	}
	steps := int(float64(s.Steps) * factor)
	if steps < 2 {
		steps = 2
	}
	s.Steps = steps
	return s
}

func normalize(row *Fig3Row) {
	base := row.Ops[SysRedbud]
	for sys, v := range row.Ops {
		if base > 0 {
			row.Norm[sys] = v / base
		}
	}
}

// PrintFig3 renders the rows as the paper's normalized bar groups.
func PrintFig3(w io.Writer, rows []Fig3Row) {
	fmt.Fprintln(w, "Figure 3: performance normalized to original Redbud")
	fmt.Fprintf(w, "%-12s %10s %10s %10s %14s\n", "workload", "pvfs2", "nfs3", "redbud", "redbud+dc")
	for _, r := range rows {
		fmt.Fprintf(w, "%-12s %10.2f %10.2f %10.2f %14.2f\n",
			r.Workload, r.Norm[SysPVFS2], r.Norm[SysNFS3], r.Norm[SysRedbud], r.Norm[SysRedbudDCSD])
	}
}

// ---------------------------------------------------------------------------
// Figure 4: I/O merge ratio under the three Redbud configurations.

// Fig4Row is one file size's merge ratios.
type Fig4Row struct {
	FileSize int64
	Ratio    map[System]float64 // merged / submitted
}

// fig4Systems are the three configurations of Figures 4 and 5.
var fig4Systems = []System{SysRedbud, SysRedbudDC, SysRedbudDCSD}

// Fig4 regenerates the I/O merge-ratio figure (xcdn at 32K/64K/1M).
func Fig4(opt Options) ([]Fig4Row, error) {
	sizes := []int64{32 << 10, 64 << 10, 1 << 20}
	rows := make([]Fig4Row, 0, len(sizes))
	for _, size := range sizes {
		row := Fig4Row{FileSize: size, Ratio: map[System]float64{}}
		for _, sys := range fig4Systems {
			c := Build(sys, opt)
			spec := workload.Xcdn(size, opt.Seed).Scale(opt.SizeFactor)
			res, err := RunDistributed(c, spec)
			st := c.DeviceStats()
			c.Close()
			if err != nil {
				return nil, fmt.Errorf("fig4 %d on %s: %w", size, sys, err)
			}
			if res.Errors > 0 {
				return nil, fmt.Errorf("fig4 %d on %s: %d op errors", size, sys, res.Errors)
			}
			row.Ratio[sys] = st.MergeRatio()
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// PrintFig4 renders the merge ratios.
func PrintFig4(w io.Writer, rows []Fig4Row) {
	fmt.Fprintln(w, "Figure 4: I/O merge ratio (merged requests / submitted requests)")
	fmt.Fprintf(w, "%-10s %16s %16s %18s\n", "file size", "original", "delayed-commit", "space-delegation")
	for _, r := range rows {
		fmt.Fprintf(w, "%-10s %16.3f %16.3f %18.3f\n",
			SizeLabel(r.FileSize), r.Ratio[SysRedbud], r.Ratio[SysRedbudDC], r.Ratio[SysRedbudDCSD])
	}
}

// SizeLabel names a file size the way the figures label it: "32KB", "1MB".
func SizeLabel(n int64) string {
	if n >= 1<<20 {
		return fmt.Sprintf("%dMB", n>>20)
	}
	return fmt.Sprintf("%dKB", n>>10)
}

// ---------------------------------------------------------------------------
// Figure 5: disk-seek traces.

// Fig5Panel is one (config, file size) panel: the blktrace-derived series
// plus summary statistics.
type Fig5Panel struct {
	System   System
	FileSize int64
	Series   []iotrace.SeekPoint
	Summary  iotrace.Summary
}

// Fig5 regenerates the disk-seek panels for 32 KiB and 1 MiB xcdn runs under
// the three Redbud configurations.
func Fig5(opt Options) ([]Fig5Panel, error) {
	opt.Trace = true
	var panels []Fig5Panel
	for _, size := range []int64{32 << 10, 1 << 20} {
		for _, sys := range fig4Systems {
			c := Build(sys, opt)
			spec := workload.Xcdn(size, opt.Seed).Scale(opt.SizeFactor)
			_, err := RunDistributed(c, spec)
			var panel Fig5Panel
			if c.Rec != nil {
				panel = Fig5Panel{System: sys, FileSize: size, Series: c.Rec.SeekSeries(), Summary: c.Rec.Summarize()}
			}
			c.Close()
			if err != nil {
				return nil, fmt.Errorf("fig5 %d on %s: %w", size, sys, err)
			}
			panels = append(panels, panel)
		}
	}
	return panels, nil
}

// PrintFig5 renders the per-panel seek summaries (the CSV series are
// available via cmd/redbud-trace).
func PrintFig5(w io.Writer, panels []Fig5Panel) {
	fmt.Fprintln(w, "Figure 5: disk seeks (xcdn write dispatches; lower seeks/dispatch = flatter panel)")
	fmt.Fprintf(w, "%-14s %-10s %10s %10s %12s %14s\n", "config", "file size", "dispatches", "seeks", "seeks/disp", "mean seek (MB)")
	for _, p := range panels {
		perDisp := 0.0
		if p.Summary.Dispatches > 0 {
			perDisp = float64(p.Summary.Seeks) / float64(p.Summary.Dispatches)
		}
		fmt.Fprintf(w, "%-14s %-10s %10d %10d %12.3f %14.2f\n",
			p.System, SizeLabel(p.FileSize), p.Summary.Dispatches, p.Summary.Seeks,
			perDisp, p.Summary.MeanSeekLen/1e6)
	}
}

// ---------------------------------------------------------------------------
// Figure 6: commit threads vs commit queue length over time.

// Fig6Trace is one workload's trace on the first Redbud client.
type Fig6Trace struct {
	Workload string
	Threads  *stats.Series
	QueueLen *stats.Series
	MaxQueue float64
	MaxThr   float64
	MeanThr  float64
}

// Fig6 runs the four workloads on Redbud+DC+SD and records the adaptive
// pool's behaviour (client 0). The paper runs Filebench at its default
// thread counts (dozens of application threads per client); to reproduce
// the commit-queue pressure at simulation scale, each client runs the
// workloads with extra threads here.
func Fig6(opt Options) ([]Fig6Trace, error) {
	heavier := func(s workload.Spec) workload.Spec {
		s = s.Scale(opt.SizeFactor)
		s.Threads *= 4
		s.Think = 0
		return s
	}
	specs := []workload.Spec{
		heavier(workload.Varmail(opt.Seed)),
		heavier(workload.Fileserver(opt.Seed)),
		heavier(workload.Webproxy(opt.Seed)),
		heavier(workload.Xcdn(32<<10, opt.Seed)),
	}
	var traces []Fig6Trace
	for _, spec := range specs {
		thr := stats.NewSeries(spec.Name + "/threads")
		qln := stats.NewSeries(spec.Name + "/queue")
		c := buildFig6(opt, thr, qln)
		_, err := RunDistributed(c, spec)
		c.Close()
		if err != nil {
			return nil, fmt.Errorf("fig6 %s: %w", spec.Name, err)
		}
		traces = append(traces, Fig6Trace{
			Workload: spec.Name,
			Threads:  thr,
			QueueLen: qln,
			MaxQueue: qln.Max(),
			MaxThr:   thr.Max(),
			MeanThr:  thr.Mean(),
		})
	}
	return traces, nil
}

// buildFig6 builds a Redbud DC+SD cluster whose first client's commit-thread
// count and queue length are sampled into the series.
func buildFig6(opt Options, thr, qln *stats.Series) *Cluster {
	c := Build(SysRedbudDCSD, opt)
	// Sampler goroutine against client 0, at a fixed cadence.
	stop := make(chan struct{})
	done := make(chan struct{})
	cl := c.Redbud[0]
	clk := c.Clock
	go func() {
		defer close(done)
		for {
			select {
			case <-stop:
				return
			case <-clk.After(2 * time.Millisecond):
				now := clk.Now()
				thr.Record(now, float64(cl.CommitThreads()))
				qln.Record(now, float64(cl.QueueLen()))
			}
		}
	}()
	c.closers = append(c.closers, func() { close(stop); <-done })
	return c
}

// PrintFig6 renders the trace summaries and a coarse ASCII sparkline of the
// thread count.
func PrintFig6(w io.Writer, traces []Fig6Trace) {
	fmt.Fprintln(w, "Figure 6: commit threads track commit queue length (client 0)")
	fmt.Fprintf(w, "%-12s %12s %12s %12s  %s\n", "workload", "max queue", "max threads", "mean threads", "thread sparkline")
	for _, tr := range traces {
		fmt.Fprintf(w, "%-12s %12.0f %12.0f %12.1f  %s\n",
			tr.Workload, tr.MaxQueue, tr.MaxThr, tr.MeanThr, sparkline(tr.Threads, 40))
	}
}

// sparkline draws a series as a tiny character plot.
func sparkline(s *stats.Series, width int) string {
	pts := s.Downsample(width)
	if len(pts) == 0 {
		return ""
	}
	max := s.Max()
	if max <= 0 {
		max = 1
	}
	levels := []rune("▁▂▃▄▅▆▇█")
	out := make([]rune, 0, len(pts))
	for _, p := range pts {
		i := int(p.V / max * float64(len(levels)-1))
		if i < 0 {
			i = 0
		}
		if i >= len(levels) {
			i = len(levels) - 1
		}
		out = append(out, levels[i])
	}
	return string(out)
}

// ---------------------------------------------------------------------------
// Figure 7: compound degree vs MDS daemon threads.

// Fig7Cell is one (daemons, degree) measurement.
type Fig7Cell struct {
	Daemons   int
	Degree    int
	PerClient float64 // MB/s of data moved per client
	OpsPerSec float64 // workload operations per virtual second, all clients
}

// Fig7 sweeps server daemon threads {1, 8, 16} against compound degree
// {1, 3, 6} on the small-file xcdn workload.
func Fig7(opt Options) ([]Fig7Cell, error) {
	var cells []Fig7Cell
	for _, daemons := range []int{1, 8, 16} {
		for _, degree := range []int{1, 3, 6} {
			o := opt
			o.MDSDaemons = daemons
			o.CompoundDegree = degree
			c := Build(SysRedbudDCSD, o)
			spec := workload.Xcdn(32<<10, opt.Seed).Scale(opt.SizeFactor)
			res, err := RunDistributed(c, spec)
			c.Close()
			if err != nil {
				return nil, fmt.Errorf("fig7 d=%d k=%d: %w", daemons, degree, err)
			}
			if res.Errors > 0 {
				return nil, fmt.Errorf("fig7 d=%d k=%d: %d op errors", daemons, degree, res.Errors)
			}
			cells = append(cells, Fig7Cell{
				Daemons:   daemons,
				Degree:    degree,
				PerClient: res.MBps() / float64(opt.Clients),
				OpsPerSec: res.Throughput(),
			})
		}
	}
	return cells, nil
}

// PrintFig7 renders the sweep as the paper's grouped bars.
func PrintFig7(w io.Writer, cells []Fig7Cell) {
	fmt.Fprintln(w, "Figure 7: per-client throughput (MB/s) vs MDS daemons x compound degree")
	byDaemons := map[int]map[int]float64{}
	var daemonsSet []int
	for _, c := range cells {
		if byDaemons[c.Daemons] == nil {
			byDaemons[c.Daemons] = map[int]float64{}
			daemonsSet = append(daemonsSet, c.Daemons)
		}
		byDaemons[c.Daemons][c.Degree] = c.PerClient
	}
	sort.Ints(daemonsSet)
	fmt.Fprintf(w, "%-16s %10s %10s %10s\n", "server daemons", "degree 1", "degree 3", "degree 6")
	for _, d := range daemonsSet {
		fmt.Fprintf(w, "%-16d %10.2f %10.2f %10.2f\n", d, byDaemons[d][1], byDaemons[d][3], byDaemons[d][6])
	}
}
