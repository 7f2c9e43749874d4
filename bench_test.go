// Benchmarks regenerating every figure of the paper's evaluation (§V). Each
// BenchmarkFigN runs the corresponding experiment at reduced op counts and
// reports the figure's headline metrics via b.ReportMetric; `go run
// ./cmd/redbud-bench` runs the full-scale versions and prints the complete
// tables. The ablations of the design choices DESIGN.md calls out are pinned
// in exact virtual time by internal/bench's TestVirtualAblations.
package redbud

import (
	"testing"

	"redbud/internal/bench"
)

// benchOptions shrinks the cluster so a single figure fits in seconds.
func benchOptions() bench.Options {
	o := bench.DefaultOptions()
	o.Clients = 3
	o.Scale = 0.005
	o.SizeFactor = 0.1
	return o
}

// BenchmarkFig3_PerformanceComparison regenerates Figure 3: throughput of
// PVFS2 / NFS3 / Redbud / Redbud+DC on the five workloads, normalized to
// original Redbud. The headline metric is the xcdn-32K speedup (paper: 2.6x).
func BenchmarkFig3_PerformanceComparison(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := bench.Fig3(benchOptions())
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			if r.Workload == "xcdn-32K" {
				b.ReportMetric(r.Norm[bench.SysRedbudDCSD], "xcdn32K-speedup")
				b.ReportMetric(r.Norm[bench.SysNFS3], "xcdn32K-nfs3-norm")
			}
			if r.Workload == "varmail" {
				b.ReportMetric(r.Norm[bench.SysRedbudDCSD], "varmail-speedup")
			}
		}
	}
}

// BenchmarkFig4_MergeRatio regenerates Figure 4: I/O merge ratio of the
// three Redbud configurations at 32K/64K/1M (paper: delegation improves the
// ratio 2.8-5.9x over delayed commit alone).
func BenchmarkFig4_MergeRatio(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := bench.Fig4(benchOptions())
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			if r.FileSize == 32<<10 {
				b.ReportMetric(r.Ratio[bench.SysRedbudDC], "dc-merge-ratio-32K")
				b.ReportMetric(r.Ratio[bench.SysRedbudDCSD], "sd-merge-ratio-32K")
				if dc := r.Ratio[bench.SysRedbudDC]; dc > 0 {
					b.ReportMetric(r.Ratio[bench.SysRedbudDCSD]/dc, "sd-over-dc-32K")
				}
			}
		}
	}
}

// BenchmarkFig5_SeekTraces regenerates Figure 5: blktrace-style disk-seek
// panels under the three configurations x {32K, 1M}. Reported metric: seek
// bytes per dispatch for original vs delegation at 32K (panel a vs c).
func BenchmarkFig5_SeekTraces(b *testing.B) {
	for i := 0; i < b.N; i++ {
		panels, err := bench.Fig5(benchOptions())
		if err != nil {
			b.Fatal(err)
		}
		for _, p := range panels {
			if p.FileSize != 32<<10 || p.Summary.Dispatches == 0 {
				continue
			}
			perDisp := float64(p.Summary.SeekBytes) / float64(p.Summary.Dispatches) / 1e6
			switch p.System {
			case bench.SysRedbud:
				b.ReportMetric(perDisp, "orig-seekMB-per-disp")
			case bench.SysRedbudDCSD:
				b.ReportMetric(perDisp, "sd-seekMB-per-disp")
			}
		}
	}
}

// BenchmarkFig6_AdaptiveThreads regenerates Figure 6: the commit-thread
// count tracking the commit-queue length across the four workloads.
func BenchmarkFig6_AdaptiveThreads(b *testing.B) {
	for i := 0; i < b.N; i++ {
		traces, err := bench.Fig6(benchOptions())
		if err != nil {
			b.Fatal(err)
		}
		for _, tr := range traces {
			switch tr.Workload {
			case "varmail":
				b.ReportMetric(tr.MeanThr, "varmail-mean-threads")
			case "xcdn-32K":
				b.ReportMetric(tr.MaxThr, "xcdn-max-threads")
			}
		}
	}
}

// BenchmarkFig7_CompoundDegree regenerates Figure 7: per-client throughput
// for MDS daemons {1,8,16} x compound degree {1,3,6}. Reported metric: the
// gain of degree 3 over degree 1 on the one-daemon server.
func BenchmarkFig7_CompoundDegree(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cells, err := bench.Fig7(benchOptions())
		if err != nil {
			b.Fatal(err)
		}
		var d1k1, d1k3 float64
		for _, c := range cells {
			if c.Daemons == 1 && c.Degree == 1 {
				d1k1 = c.PerClient
			}
			if c.Daemons == 1 && c.Degree == 3 {
				d1k3 = c.PerClient
			}
		}
		if d1k1 > 0 {
			b.ReportMetric(d1k3/d1k1, "compound3-gain-1daemon")
		}
	}
}
