package obs

import (
	"fmt"
	"sort"
	"strings"
	"time"
)

// ReadPath is the reconstructed lifecycle of one ReadAt. The four legs are
// disjoint, so Cache + Layout + Barrier + Device == E2E exactly:
// Cache is defined as the residual — lock waits and the copy out of the page
// cache, everything no child span covers — and absorbs any rounding, the way
// Batch does for a commit.
type ReadPath struct {
	ID    uint64
	Start time.Time
	E2E   time.Duration

	Cache   time.Duration // residual: served from the client's memory
	Layout  time.Duration // layout probe RPC (committed extents)
	Barrier time.Duration // wait for the client's own writes to be durable
	Device  time.Duration // device reads
}

// OpenStat aggregates the Open calls that ended one way.
type OpenStat struct {
	Count int64
	Total time.Duration
}

// ReadBreakdown aggregates the read side of a trace: per-read critical paths,
// and how the opens in front of them found their attributes.
type ReadBreakdown struct {
	Reads   int
	E2E     time.Duration // summed end-to-end latency
	Stages  []Stage       // cache, layout, barrier, device; totals sum to E2E exactly
	PerRead []ReadPath    // sorted by ID

	// Opens by outcome: served from a file delegation, asked the MDS, asked
	// about a file whose delegation had been recalled.
	OpenHit, OpenMiss, OpenRecalled OpenStat
}

// OpenHitRatio is the share of opens that cost no RPC (0 with no opens).
func (b *ReadBreakdown) OpenHitRatio() float64 {
	n := b.OpenHit.Count + b.OpenMiss.Count + b.OpenRecalled.Count
	if n == 0 {
		return 0
	}
	return float64(b.OpenHit.Count) / float64(n)
}

// AnalyzeReads is the read-side counterpart of Analyze: it reconstructs every
// ReadAt of a span stream from its read.app root and the leg spans linked
// under it. Legs whose root was evicted from the ring are skipped; a root
// whose legs were evicted counts their time as cache, so the identity holds
// on a wrapped ring too.
func AnalyzeReads(spans []Span) *ReadBreakdown {
	b := &ReadBreakdown{}
	reads := make(map[uint64]*ReadPath)
	for i := range spans {
		s := &spans[i]
		switch s.Name {
		case SpanAppRead:
			reads[s.TraceID] = &ReadPath{ID: s.TraceID, Start: s.Start, E2E: s.Duration()}
		case SpanOpenHit:
			b.OpenHit.Count++
			b.OpenHit.Total += s.Duration()
		case SpanOpenMiss:
			b.OpenMiss.Count++
			b.OpenMiss.Total += s.Duration()
		case SpanOpenRecalled:
			b.OpenRecalled.Count++
			b.OpenRecalled.Total += s.Duration()
		}
	}
	for i := range spans {
		s := &spans[i]
		p := reads[s.Parent]
		if p == nil || s.Parent == 0 || s.TraceID != s.Parent {
			continue
		}
		switch s.Name {
		case SpanReadLayout:
			p.Layout += s.Duration()
		case SpanReadBarrier:
			p.Barrier += s.Duration()
		case SpanReadDevice:
			p.Device += s.Duration()
		}
	}
	b.Stages = []Stage{{Name: "cache"}, {Name: "layout"}, {Name: "barrier"}, {Name: "device"}}
	for _, p := range reads {
		p.Cache = p.E2E - p.Layout - p.Barrier - p.Device
		b.PerRead = append(b.PerRead, *p)
	}
	sort.Slice(b.PerRead, func(i, j int) bool { return b.PerRead[i].ID < b.PerRead[j].ID })
	b.Reads = len(b.PerRead)
	for _, p := range b.PerRead {
		b.E2E += p.E2E
		addStage(&b.Stages[0], p.Cache)
		addStage(&b.Stages[1], p.Layout)
		addStage(&b.Stages[2], p.Barrier)
		addStage(&b.Stages[3], p.Device)
	}
	return b
}

// Table renders the read-side breakdown: one line per open outcome, then the
// per-leg table, whose totals sum to the end-to-end total exactly.
func (b *ReadBreakdown) Table() string {
	var sb strings.Builder
	mean := func(total time.Duration, n int64) time.Duration {
		if n == 0 {
			return 0
		}
		return (total / time.Duration(n)).Round(time.Nanosecond)
	}
	fmt.Fprintf(&sb, "opens: %d hit (mean %v), %d miss (mean %v), %d recalled (mean %v); hit ratio %.3f\n",
		b.OpenHit.Count, mean(b.OpenHit.Total, b.OpenHit.Count),
		b.OpenMiss.Count, mean(b.OpenMiss.Total, b.OpenMiss.Count),
		b.OpenRecalled.Count, mean(b.OpenRecalled.Total, b.OpenRecalled.Count), b.OpenHitRatio())
	fmt.Fprintf(&sb, "read critical path: %d reads, total e2e %v, mean %v\n", b.Reads, b.E2E, mean(b.E2E, int64(b.Reads)))
	fmt.Fprintf(&sb, "  %-16s %14s %14s %8s %8s\n", "leg", "total", "mean", "% e2e", "reads")
	row := func(s Stage) {
		pct := 0.0
		if b.E2E > 0 {
			pct = 100 * float64(s.Total) / float64(b.E2E)
		}
		fmt.Fprintf(&sb, "  %-16s %14v %14v %7.1f%% %8d\n", s.Name, s.Total, mean(s.Total, int64(b.Reads)), pct, s.Count)
	}
	for _, s := range b.Stages {
		row(s)
	}
	row(Stage{Name: "e2e", Total: b.E2E, Count: int64(b.Reads)})
	return sb.String()
}
