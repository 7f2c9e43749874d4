package bench

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
	"time"

	"redbud/internal/obs"
	"redbud/internal/workload"
)

// TestClusterSpanTrace runs a small traced cluster end to end and checks the
// tentpole acceptance criteria: the trace exports as loadable Chrome-trace
// JSON, and the per-stage critical path sums to the end-to-end latency.
func TestClusterSpanTrace(t *testing.T) {
	opt := TestOptions()
	opt.SpanTrace = true
	c := Build(SysRedbudDC, opt)
	defer c.Close()

	spec := workload.Varmail(opt.Seed).Scale(opt.SizeFactor)
	if _, err := RunDistributed(c, spec); err != nil {
		t.Fatal(err)
	}

	spans := c.Tracer.Spans()
	if len(spans) == 0 {
		t.Fatal("traced run recorded no spans")
	}
	seen := map[string]bool{}
	for _, s := range spans {
		seen[s.Name] = true
	}
	for _, want := range []string{
		obs.SpanCommitRPC, obs.SpanMDSCommit, obs.SpanMDSJournal,
		obs.SpanDevQueue, obs.SpanRPCProcess, obs.SpanNetXmit, obs.SpanAppWrite,
	} {
		if !seen[want] {
			t.Errorf("no %q span recorded (have %v)", want, keys(seen))
		}
	}

	b := obs.Analyze(spans)
	if b.Commits == 0 {
		t.Fatal("no commit critical paths reconstructed")
	}
	for _, p := range b.PerCommit {
		if sum := p.Queue + p.DataWait + p.Batch + p.RPC; sum != p.E2E {
			t.Fatalf("commit %d: stage sum %v != e2e %v", p.ID, sum, p.E2E)
		}
		if p.Wire < 0 {
			t.Fatalf("commit %d: negative wire time %v", p.ID, p.Wire)
		}
	}

	var buf bytes.Buffer
	if err := obs.WriteChromeTrace(&buf, spans); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("trace export is not valid JSON: %v", err)
	}
	if len(doc.TraceEvents) < len(spans) {
		t.Fatalf("export has %d events for %d spans", len(doc.TraceEvents), len(spans))
	}
}

// TestClusterRegistry checks the unified registry: every layer's counters
// appear in one Prometheus export, including the adopted legacy counters.
func TestClusterRegistry(t *testing.T) {
	opt := TestOptions()
	c := Build(SysRedbudDC, opt)
	defer c.Close()
	spec := workload.Varmail(opt.Seed).Scale(opt.SizeFactor)
	if _, err := RunDistributed(c, spec); err != nil {
		t.Fatal(err)
	}

	var b strings.Builder
	if err := c.Registry.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"redbud_client_writes_total",                  // client layer
		"redbud_client_commit_latency_seconds_bucket", // histogram export
		"redbud_mds_dedup_hits_total",                 // adopted mds counter
		"redbud_rpc_processed_total",                  // rpc server layer
		"redbud_client_bad_frames_total",              // adopted rpc counter
		"redbud_net_messages_total",                   // netsim layer
		"redbud_net_fault_dropped_total",              // adopted fault counters
		"redbud_dev_written_bytes_total",              // blockdev layer
		"redbud_dev_injected_faults_total",
		"redbud_meta_journal_appends_total", // meta store layer
	} {
		if !strings.Contains(out, want) {
			t.Errorf("registry export missing %s", want)
		}
	}
	// Sanity: the workload actually moved the counters.
	snap := c.Registry.Snapshot()
	var writes int64
	for _, m := range snap.Metrics {
		if m.Name == "redbud_client_writes_total" {
			writes += m.Value
		}
	}
	if writes == 0 {
		t.Fatal("redbud_client_writes_total stayed zero across a write workload")
	}
}

// TestRunObsBench runs the observability benchmark on a tiny cluster: the
// traced run yields commits whose four stages account for the whole
// end-to-end latency, and the report renders.
func TestRunObsBench(t *testing.T) {
	opt := TestOptions()
	opt.Clients = 2
	opt.SizeFactor = 0.05
	rep, spans, err := RunObsBench(opt)
	if err != nil {
		t.Fatal(err)
	}
	b := rep.Breakdown
	if b.Commits == 0 || len(spans) == 0 {
		t.Fatalf("obs bench produced no commits/spans: %+v", rep)
	}
	if len(b.Stages) != 4 {
		t.Fatalf("critical path has %d stages, want 4: %+v", len(b.Stages), b.Stages)
	}
	var sum time.Duration
	for _, s := range b.Stages {
		sum += s.Total
	}
	if sum != b.E2E {
		t.Fatalf("stages sum to %v, want the end-to-end total %v", sum, b.E2E)
	}
	// The read side: varmail re-opens and reads what its own threads wrote;
	// every open and read is reconstructed, nothing is ever recalled, and the
	// five legs account for every nanosecond of a read. (How many opens hit
	// says nothing at this scale: on a clock compressed 500× the 200 ms lease
	// is 0.4 ms of wall time, less than one RPC's timer tick, so it lapses
	// between requests — always, under the race detector. The repository
	// benchmark, at scale 1, is where the hit ratio is measured.)
	r := rep.Reads
	if opens := r.OpenHit.Count + r.OpenMiss.Count; r.Reads == 0 || opens < int64(r.Reads) || r.OpenRecalled.Count != 0 {
		t.Fatalf("read breakdown: %d reads, opens %+v hit, %+v miss, %+v recalled", r.Reads, r.OpenHit, r.OpenMiss, r.OpenRecalled)
	}
	sum = 0
	for _, s := range r.Stages {
		sum += s.Total
	}
	if sum != r.E2E {
		t.Fatalf("read legs sum to %v, want the end-to-end total %v", sum, r.E2E)
	}
	for _, p := range r.PerRead {
		if got := p.Cache + p.Layout + p.Barrier + p.Device; got != p.E2E || p.Cache < 0 {
			t.Fatalf("read %d: legs sum to %v (cache %v), e2e %v", p.ID, got, p.Cache, p.E2E)
		}
	}
	var out strings.Builder
	PrintObs(&out, rep)
	for _, want := range []string{"commit critical path", "read critical path", "hit ratio"} {
		if !strings.Contains(out.String(), want) {
			t.Fatalf("PrintObs output lacks %q:\n%s", want, out.String())
		}
	}
}

func keys(m map[string]bool) []string {
	var out []string
	for k := range m {
		out = append(out, k)
	}
	return out
}
