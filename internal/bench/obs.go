package bench

import (
	"fmt"
	"io"
	"math"
	"sort"
	"time"

	"redbud/internal/obs"
	"redbud/internal/workload"
)

// ObsReport summarizes one traced cluster run: where commit latency goes
// (the Figure-6-style critical path), the e2e quantiles, and the virtual-time
// perturbation tracing itself introduced.
type ObsReport struct {
	System   string
	Workload string

	SpansKept    int   // spans resident in the ring at the end of the run
	SpansTotal   int64 // spans ever recorded
	SpansDropped int64 // spans overwritten after the ring filled

	Breakdown *obs.Breakdown
	P50, P99  time.Duration // per-commit e2e quantiles
	// Reads is the read-side breakdown: how opens found their attributes and
	// where each ReadAt spent its time.
	Reads *obs.ReadBreakdown

	BaseDuration   time.Duration // virtual duration, tracing disabled
	TracedDuration time.Duration // virtual duration, tracing enabled
	OverheadPct    float64       // (traced-base)/base * 100
}

// RunObsBench runs the same workload twice on a delayed-commit Redbud
// cluster — once untraced for a baseline, once with the span tracer — and
// reconstructs the commit critical path from the traced run. It returns the
// report and the raw spans (for Chrome-trace export).
func RunObsBench(opt Options) (*ObsReport, []obs.Span, error) {
	spec := workload.Varmail(opt.Seed).Scale(opt.SizeFactor)

	base := opt
	base.SpanTrace = false
	c := Build(SysRedbudDC, base)
	baseRes, err := RunDistributed(c, spec)
	c.Close()
	if err != nil {
		return nil, nil, fmt.Errorf("obs baseline run: %w", err)
	}

	traced := opt
	traced.SpanTrace = true
	c = Build(SysRedbudDC, traced)
	tracedRes, err := RunDistributed(c, spec)
	if err != nil {
		c.Close()
		return nil, nil, fmt.Errorf("obs traced run: %w", err)
	}
	spans := c.Tracer.Spans()
	rep := &ObsReport{
		System:         c.System.String(),
		Workload:       spec.Name,
		SpansKept:      len(spans),
		SpansTotal:     c.Tracer.Total(),
		SpansDropped:   c.Tracer.Dropped(),
		Breakdown:      obs.Analyze(spans),
		Reads:          obs.AnalyzeReads(spans),
		BaseDuration:   baseRes.Duration,
		TracedDuration: tracedRes.Duration,
	}
	c.Close()
	if baseRes.Duration > 0 {
		rep.OverheadPct = 100 * float64(tracedRes.Duration-baseRes.Duration) / float64(baseRes.Duration)
	}
	rep.P50, rep.P99 = e2eQuantiles(rep.Breakdown.PerCommit)
	return rep, spans, nil
}

// e2eQuantiles computes p50/p99 of per-commit end-to-end latency with the
// same nearest-rank rule as stats.Quantile.
func e2eQuantiles(paths []obs.CommitPath) (p50, p99 time.Duration) {
	if len(paths) == 0 {
		return 0, 0
	}
	lat := make([]time.Duration, len(paths))
	for i, p := range paths {
		lat[i] = p.E2E
	}
	sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
	rank := func(q float64) time.Duration {
		idx := int(math.Ceil(q*float64(len(lat)))) - 1
		if idx < 0 {
			idx = 0
		}
		return lat[idx]
	}
	return rank(0.50), rank(0.99)
}

// PrintObs renders the report as the per-stage table plus summary lines.
func PrintObs(w io.Writer, rep *ObsReport) {
	fmt.Fprintf(w, "%s / %s: %d spans kept (%d recorded, %d overwritten)\n",
		rep.System, rep.Workload, rep.SpansKept, rep.SpansTotal, rep.SpansDropped)
	fmt.Fprint(w, rep.Breakdown.Table())
	fmt.Fprintf(w, "  commit e2e p50 %v  p99 %v\n", rep.P50, rep.P99)
	fmt.Fprint(w, rep.Reads.Table())
	fmt.Fprintf(w, "  virtual duration: untraced %v, traced %v (%+.2f%%)\n",
		rep.BaseDuration, rep.TracedDuration, rep.OverheadPct)
}
