package obs

import (
	"strings"
	"testing"
	"time"
)

func TestAnalyzeReadsLegSumExact(t *testing.T) {
	leg := func(read uint64, name string, start, end int64) Span {
		return Span{Track: "c0/app", Name: name, TraceID: read, SpanID: NewSpanID(read, name), Parent: read, Start: at(start), End: at(end)}
	}
	root := func(read uint64, start, end int64) Span {
		return Span{Track: "c0/app", Name: SpanAppRead, TraceID: read, SpanID: read, Start: at(start), End: at(end)}
	}
	spans := []Span{
		// Read 1: everything in the page cache — the root is all there is.
		root(1, 0, 7),
		// Read 2: a cold read — layout probe, barrier, device.
		leg(2, SpanReadLayout, 102, 150),
		leg(2, SpanReadBarrier, 151, 160),
		leg(2, SpanReadDevice, 165, 290),
		root(2, 100, 300),
		// Read 3: a conflict read once the writer's commit has landed.
		leg(3, SpanReadLayout, 401, 440),
		leg(3, SpanReadDevice, 445, 480),
		root(3, 400, 500),
		// A leg whose root the ring has evicted: skipped.
		leg(9, SpanReadDevice, 600, 700),
		// Opens, and spans of other traces that happen to carry a parent.
		{Track: "c0/app", Name: SpanOpenHit, Start: at(0), End: at(1)},
		{Track: "c0/app", Name: SpanOpenHit, Start: at(10), End: at(13)},
		{Track: "c0/app", Name: SpanOpenMiss, Start: at(20), End: at(1020)},
		{Track: "c0/app", Name: SpanOpenRecalled, Start: at(30), End: at(2030)},
		{Track: "mds", Name: SpanMDSCommit, CommitID: 5, TraceID: 5, SpanID: 77, Parent: 2, Start: at(0), End: at(50)},
	}
	b := AnalyzeReads(spans)
	us := func(n int64) time.Duration { return time.Duration(n) * time.Microsecond }

	if b.Reads != 3 || len(b.PerRead) != 3 || b.PerRead[0].ID != 1 || b.PerRead[2].ID != 3 {
		t.Fatalf("reads = %d, per read %+v", b.Reads, b.PerRead)
	}
	if p := b.PerRead[0]; p.E2E != us(7) || p.Cache != us(7) || p.Layout+p.Barrier+p.Device != 0 {
		t.Fatalf("cached read = %+v", p)
	}
	if p := b.PerRead[1]; p.E2E != us(200) || p.Layout != us(48) || p.Barrier != us(9) || p.Device != us(125) || p.Cache != us(18) {
		t.Fatalf("cold read = %+v", p)
	}
	if p := b.PerRead[2]; p.E2E != us(100) || p.Layout != us(39) || p.Barrier != 0 || p.Device != us(35) || p.Cache != us(26) {
		t.Fatalf("conflict read = %+v", p)
	}
	// The acceptance criterion: legs sum to e2e exactly, per read and in total.
	var total time.Duration
	for _, p := range b.PerRead {
		if sum := p.Cache + p.Layout + p.Barrier + p.Device; sum != p.E2E {
			t.Fatalf("read %d: legs sum to %v, e2e %v", p.ID, sum, p.E2E)
		}
	}
	for _, s := range b.Stages {
		total += s.Total
	}
	if total != b.E2E || b.E2E != us(307) {
		t.Fatalf("stage totals sum to %v, e2e %v, want 307µs both", total, b.E2E)
	}
	if b.OpenHit != (OpenStat{2, us(4)}) || b.OpenMiss != (OpenStat{1, us(1000)}) || b.OpenRecalled != (OpenStat{1, us(2000)}) {
		t.Fatalf("opens = %+v hit, %+v miss, %+v recalled", b.OpenHit, b.OpenMiss, b.OpenRecalled)
	}
	if got := b.OpenHitRatio(); got != 0.5 {
		t.Fatalf("hit ratio %v, want 0.5", got)
	}
	table := b.Table()
	for _, want := range []string{"2 hit", "1 miss", "1 recalled", "hit ratio 0.500", "3 reads", "cache", "barrier", "e2e"} {
		if !strings.Contains(table, want) {
			t.Fatalf("table lacks %q:\n%s", want, table)
		}
	}
	// The commit-side analysis does not see the read spans, and vice versa.
	if c := Analyze(spans); c.Commits != 0 || len(c.Sagas) != 0 {
		t.Fatalf("Analyze reconstructed %d commits and %d sagas from read spans", c.Commits, len(c.Sagas))
	}
	if empty := AnalyzeReads(nil); empty.Reads != 0 || empty.OpenHitRatio() != 0 || !strings.Contains(empty.Table(), "0 reads") {
		t.Fatalf("empty breakdown = %+v", empty)
	}
}
