package debughttp

import (
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"

	"redbud/internal/bench"
	"redbud/internal/obs"
	"redbud/internal/obs/agg"
)

func startTestServer(t *testing.T) (*Server, *obs.Registry, *obs.Tracer) {
	t.Helper()
	reg := obs.NewRegistry()
	tr := obs.NewTracer(16)
	s, err := Start(Config{Addr: "127.0.0.1:0", Registry: reg, Tracer: tr})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s, reg, tr
}

func get(t *testing.T, url string) (int, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(body)
}

func TestMetricsEndpoints(t *testing.T) {
	s, reg, _ := startTestServer(t)
	reg.NewCounter("redbud_test_ops_total", "ops", obs.Labels{"who": "me"}).Add(9)

	code, body := get(t, "http://"+s.Addr()+"/metrics")
	if code != 200 {
		t.Fatalf("/metrics status %d", code)
	}
	for _, want := range []string{
		"# TYPE redbud_test_ops_total counter",
		`redbud_test_ops_total{who="me"} 9`,
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q:\n%s", want, body)
		}
	}

	code, body = get(t, "http://"+s.Addr()+"/metrics.json")
	if code != 200 {
		t.Fatalf("/metrics.json status %d", code)
	}
	var snap obs.Snapshot
	if err := json.Unmarshal([]byte(body), &snap); err != nil {
		t.Fatalf("/metrics.json does not parse: %v", err)
	}
	if m, ok := snap.Get("redbud_test_ops_total"); !ok || m.Value != 9 {
		t.Fatalf("/metrics.json content: %+v", snap)
	}
}

func TestTraceEndpoints(t *testing.T) {
	s, _, tr := startTestServer(t)
	base := time.Unix(5, 0).UTC()
	for i := 0; i < 5; i++ {
		tr.Record("trk", obs.SpanCommitRPC, uint64(i+1), base, base.Add(time.Millisecond))
	}

	code, body := get(t, "http://"+s.Addr()+"/debug/trace?n=2")
	if code != 200 {
		t.Fatalf("/debug/trace status %d", code)
	}
	var dump struct {
		Total   int64      `json:"total"`
		Dropped int64      `json:"dropped"`
		Spans   []obs.Span `json:"spans"`
	}
	if err := json.Unmarshal([]byte(body), &dump); err != nil {
		t.Fatalf("/debug/trace does not parse: %v", err)
	}
	if dump.Total != 5 || len(dump.Spans) != 2 {
		t.Fatalf("trace dump = total %d, %d spans; want 5, 2", dump.Total, len(dump.Spans))
	}
	// ?n= keeps the newest spans.
	if dump.Spans[1].CommitID != 5 {
		t.Fatalf("newest span commit = %d, want 5", dump.Spans[1].CommitID)
	}

	code, body = get(t, "http://"+s.Addr()+"/debug/trace/perfetto")
	if code != 200 {
		t.Fatalf("/debug/trace/perfetto status %d", code)
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal([]byte(body), &doc); err != nil {
		t.Fatalf("perfetto export does not parse: %v", err)
	}
	if len(doc.TraceEvents) != 6 { // 5 spans + 1 thread_name
		t.Fatalf("perfetto events = %d, want 6", len(doc.TraceEvents))
	}
}

func TestIndexHealthzAndPprof(t *testing.T) {
	s, _, _ := startTestServer(t)
	if code, body := get(t, "http://"+s.Addr()+"/"); code != 200 || !strings.Contains(body, "/metrics") {
		t.Fatalf("index: %d %q", code, body)
	}
	if code, body := get(t, "http://"+s.Addr()+"/healthz"); code != 200 || !strings.Contains(body, "ok uptime=") {
		t.Fatalf("healthz: %d %q", code, body)
	}
	if code, _ := get(t, "http://"+s.Addr()+"/debug/pprof/cmdline"); code != 200 {
		t.Fatalf("pprof cmdline status %d", code)
	}
	if code, _ := get(t, "http://"+s.Addr()+"/nope"); code != 404 {
		t.Fatalf("unknown path status %d, want 404", code)
	}
}

func TestNilBackendsServeEmpty(t *testing.T) {
	s, err := Start(Config{Addr: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if code, _ := get(t, "http://"+s.Addr()+"/metrics"); code != 200 {
		t.Fatalf("/metrics with nil registry: %d", code)
	}
	code, body := get(t, "http://"+s.Addr()+"/debug/trace")
	if code != 200 {
		t.Fatalf("/debug/trace with nil tracer: %d", code)
	}
	if !strings.Contains(body, `"total": 0`) {
		t.Fatalf("nil tracer dump: %s", body)
	}
}

// clusterJSON mirrors the /cluster/metrics.json payload shape for decoding.
type clusterJSON struct {
	Shards []struct {
		Shard   string       `json:"shard"`
		Err     string       `json:"err"`
		Metrics obs.Snapshot `json:"metrics"`
	} `json:"shards"`
	Merged obs.Snapshot `json:"merged"`
	Alerts []agg.Alert  `json:"alerts"`
	Events []agg.Event  `json:"events"`
}

func TestClusterEndpoints(t *testing.T) {
	mk := func(v int64) *obs.Registry {
		r := obs.NewRegistry()
		r.NewCounter("redbud_ops_total", "ops", nil).Add(v)
		return r
	}
	coll := agg.New(agg.RegistrySource("mds0", mk(3)), agg.RegistrySource("mds1", mk(4)))
	slo := agg.NewEngine([]agg.Rule{{Name: "ops-high", Metric: "redbud_ops_total", Field: agg.FieldValue, Op: agg.GT, Threshold: 5}})
	s, err := Start(Config{Addr: "127.0.0.1:0", Collector: coll, SLO: slo})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	code, body := get(t, "http://"+s.Addr()+"/cluster/metrics")
	if code != 200 {
		t.Fatalf("/cluster/metrics status %d", code)
	}
	// The aggregate and its per-shard breakdown sit side by side.
	for _, want := range []string{
		"redbud_ops_total 7",
		`redbud_ops_total{shard="mds0"} 3`,
		`redbud_ops_total{shard="mds1"} 4`,
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/cluster/metrics missing %q:\n%s", want, body)
		}
	}

	code, body = get(t, "http://"+s.Addr()+"/cluster/metrics.json")
	if code != 200 {
		t.Fatalf("/cluster/metrics.json status %d", code)
	}
	var d clusterJSON
	if err := json.Unmarshal([]byte(body), &d); err != nil {
		t.Fatalf("/cluster/metrics.json does not parse: %v", err)
	}
	if len(d.Shards) != 2 || d.Shards[0].Shard != "mds0" || d.Shards[1].Shard != "mds1" {
		t.Fatalf("shards: %+v", d.Shards)
	}
	if m, ok := d.Merged.Get("redbud_ops_total"); !ok || m.Value != 7 {
		t.Fatalf("merged counter: %+v", d.Merged)
	}
	// 7 > 5: the rule fired on this very collection, and the transition that
	// got it there is in the log.
	if len(d.Alerts) != 1 || d.Alerts[0].State != agg.StateFiring {
		t.Fatalf("alerts: %+v", d.Alerts)
	}
	if len(d.Events) != 1 || d.Events[0].To != "firing" {
		t.Fatalf("events: %+v", d.Events)
	}
}

func TestClusterEndpointsWithoutCollector(t *testing.T) {
	s, _, _ := startTestServer(t)
	if code, _ := get(t, "http://"+s.Addr()+"/cluster/metrics"); code != 404 {
		t.Fatalf("/cluster/metrics without a collector: %d, want 404", code)
	}
	if code, _ := get(t, "http://"+s.Addr()+"/cluster/metrics.json"); code != 404 {
		t.Fatalf("/cluster/metrics.json without a collector: %d, want 404", code)
	}
}

// TestFourShardBenchCluster is the end-to-end observability check: a 4-shard
// bench cluster under real workload serves its whole debug surface — local
// metrics, the shard-tagged cluster aggregate with silent SLOs, and the
// stitched span ring — through one debughttp server.
func TestFourShardBenchCluster(t *testing.T) {
	opt := bench.TestOptions()
	opt.Shards = 4
	opt.SpanTrace = true
	// Uncompressed time: the stock commit-p99 rule fires above 50 ms of
	// virtual time, and at TestOptions' Scale of 0.002 that is 100 µs of
	// wall time, less than one host timer tick (a modeled sleep costs 0.1 to
	// 1.1 ms of wall time however short it is), so one slow wakeup among the
	// run's ten commits fired the alert on about one fault-free run in six.
	// The run is small enough to afford real time.
	opt.Scale = 1
	c := bench.Build(bench.SysRedbudDC, opt)
	defer c.Close()

	fs := c.Mounts[0]
	data := make([]byte, 4<<10)
	for i := 0; i < 4; i++ {
		dir := "/d" + string(rune('0'+i))
		if err := fs.Mkdir(dir); err != nil {
			t.Fatal(err)
		}
		for j := 0; j < 2; j++ {
			f, err := fs.Create(dir + "/f" + string(rune('0'+j)))
			if err != nil {
				t.Fatal(err)
			}
			if _, err := f.WriteAt(data, 0); err != nil {
				t.Fatal(err)
			}
			if err := f.Sync(); err != nil {
				t.Fatal(err)
			}
			if err := f.Close(); err != nil {
				t.Fatal(err)
			}
		}
	}
	// Renames between directories on different shards run the cross-shard
	// saga, so the span ring carries multi-process trees.
	if err := fs.Rename("/d0/f0", "/d1/r0"); err != nil {
		t.Fatal(err)
	}
	if err := fs.Rename("/d2/f1", "/d3/r1"); err != nil {
		t.Fatal(err)
	}
	c.Drain()

	slo := agg.NewEngine(agg.DefaultRules())
	s, err := Start(Config{
		Addr: "127.0.0.1:0", Registry: c.Registry, Tracer: c.Tracer,
		Collector: c.Collector, SLO: slo,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	if code, body := get(t, "http://"+s.Addr()+"/metrics"); code != 200 || !strings.Contains(body, "redbud_") {
		t.Fatalf("/metrics: %d", code)
	}

	code, body := get(t, "http://"+s.Addr()+"/cluster/metrics")
	if code != 200 {
		t.Fatalf("/cluster/metrics status %d", code)
	}
	for i := 0; i < 4; i++ {
		if want := `shard="mds` + string(rune('0'+i)) + `"`; !strings.Contains(body, want) {
			t.Errorf("/cluster/metrics missing %s series", want)
		}
	}
	if !strings.Contains(body, `shard="clients"`) {
		t.Error("/cluster/metrics missing the client-side series")
	}

	code, body = get(t, "http://"+s.Addr()+"/cluster/metrics.json")
	if code != 200 {
		t.Fatalf("/cluster/metrics.json status %d", code)
	}
	var d clusterJSON
	if err := json.Unmarshal([]byte(body), &d); err != nil {
		t.Fatalf("/cluster/metrics.json does not parse: %v", err)
	}
	if len(d.Shards) != 5 { // 4 MDS shards + the clients source
		t.Fatalf("cluster sources = %d, want 5", len(d.Shards))
	}
	for _, sh := range d.Shards {
		if sh.Err != "" {
			t.Errorf("shard %s scrape failed: %s", sh.Shard, sh.Err)
		}
		if len(sh.Metrics.Metrics) == 0 {
			t.Errorf("shard %s snapshot is empty", sh.Shard)
		}
	}
	if m, ok := d.Merged.Get("redbud_mds_commit_latency_seconds"); !ok || m.Hist == nil || m.Hist.Count == 0 {
		t.Fatalf("merged commit-latency histogram carries no observations: %+v", m)
	}
	// A fault-free run keeps every stock SLO silent.
	for _, a := range d.Alerts {
		if a.State != agg.StateInactive {
			t.Errorf("alert %s is %v on a fault-free run (value %g)", a.Rule.Name, a.State, a.Value)
		}
	}

	code, body = get(t, "http://"+s.Addr()+"/debug/trace/perfetto")
	if code != 200 {
		t.Fatalf("/debug/trace/perfetto status %d", code)
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal([]byte(body), &doc); err != nil {
		t.Fatalf("perfetto export does not parse: %v", err)
	}
	if len(doc.TraceEvents) == 0 {
		t.Fatal("perfetto export is empty despite SpanTrace")
	}
	for _, want := range []string{obs.SpanMDSCommit, obs.SpanNSRename} {
		if !strings.Contains(body, want) {
			t.Errorf("trace ring missing %q spans", want)
		}
	}
}
