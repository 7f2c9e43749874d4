// Command redbud-top is a live cluster monitor: it polls the /metrics.json
// endpoint of one or more debug HTTP servers (started with `redbud-mds
// -debug` / `redbud-client -debug`) and renders a refreshing terminal view —
// commit-queue depth, commit threads, compound degree, commit-latency
// p50/p99, and per-second rates computed from counter deltas between polls.
//
// With -cluster it additionally polls one daemon's /cluster/metrics.json —
// the daemon carrying the aggregation collector — and renders the cluster
// panel first: SLO alert states (firing rules up top), one column per shard
// with its commit p99, queue depth, and RPC rate, and the merge health.
//
//	redbud-mds  -listen :9000 -debug :9100 &
//	redbud-mds  -listen :9001 -debug :9101 -peers :9100,:9101 &
//	redbud-client -mds :9000 -disk 0=:9001 -debug :9102 bench 5000 &
//	redbud-top -cluster :9101 :9100 :9101 :9102
//
// Flags:
//
//	-interval 1s   poll period
//	-n 0           number of refreshes (0 = until interrupted)
//	-plain         no ANSI clear between refreshes (log-friendly)
//	-cluster ADDR  debug address serving /cluster/metrics.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"net/http"
	"os"
	"sort"
	"strings"
	"time"

	"redbud/internal/obs"
	"redbud/internal/obs/agg"
)

// target is one polled debug endpoint.
type target struct {
	addr string
	prev obs.Snapshot
	ok   bool
}

// clusterTarget is the endpoint carrying the aggregation collector; prev
// keeps each shard's last snapshot so the panel can show interval rates.
type clusterTarget struct {
	addr string
	prev map[string]obs.Snapshot
	ok   bool
}

func main() {
	var (
		interval = flag.Duration("interval", time.Second, "poll period")
		count    = flag.Int("n", 0, "refreshes before exiting (0 = forever)")
		plain    = flag.Bool("plain", false, "do not clear the screen between refreshes")
		cluster  = flag.String("cluster", "", "debug address serving /cluster/metrics.json (renders the cluster panel)")
	)
	flag.Parse()
	if flag.NArg() == 0 && *cluster == "" {
		fmt.Fprintln(os.Stderr, "usage: redbud-top [flags] ADDR [ADDR...]  (debug HTTP addresses, e.g. :9100)")
		os.Exit(2)
	}

	targets := make([]*target, 0, flag.NArg())
	for _, a := range flag.Args() {
		targets = append(targets, &target{addr: a})
	}
	var ct *clusterTarget
	if *cluster != "" {
		ct = &clusterTarget{addr: *cluster, prev: map[string]obs.Snapshot{}}
	}
	httpc := &http.Client{Timeout: 2 * time.Second}

	for i := 0; *count == 0 || i < *count; i++ {
		var b strings.Builder
		fmt.Fprintf(&b, "redbud-top  %s  (%s refresh)\n\n", time.Now().Format("15:04:05"), *interval)
		if ct != nil {
			renderCluster(&b, httpc, ct, *interval)
		}
		for _, t := range targets {
			render(&b, httpc, t, *interval)
		}
		if !*plain {
			fmt.Print("\x1b[H\x1b[2J") // home + clear
		}
		os.Stdout.WriteString(b.String())
		if *count == 0 || i < *count-1 {
			time.Sleep(*interval)
		}
	}
}

// clusterSnap mirrors debughttp's /cluster/metrics.json payload: a collection
// round plus the SLO engine's view of it.
type clusterSnap struct {
	agg.ClusterSnapshot
	Alerts []agg.Alert `json:"alerts"`
	Events []agg.Event `json:"events"`
}

// renderCluster polls the collector endpoint and appends the cluster panel:
// alert states, then one column per shard.
func renderCluster(b *strings.Builder, httpc *http.Client, t *clusterTarget, interval time.Duration) {
	head := "cluster " + t.addr
	fmt.Fprintf(b, "── %s ", head)
	fmt.Fprintln(b, strings.Repeat("─", max(0, 60-len(head))))
	cs, err := pollCluster(httpc, t.addr)
	if err != nil {
		fmt.Fprintf(b, "  unreachable: %v\n\n", err)
		t.ok = false
		return
	}

	// Alerts first: a firing rule is the one line the operator must see.
	var hot []string
	for _, a := range cs.Alerts {
		if a.State != agg.StateInactive {
			hot = append(hot, fmt.Sprintf("%s %s (%.4g %s %g)",
				a.Rule.Name, strings.ToUpper(a.State.String()), a.Value, a.Rule.Op, a.Rule.Threshold))
		}
	}
	switch {
	case len(hot) > 0:
		fmt.Fprintf(b, "  ALERTS: %s\n", strings.Join(hot, "; "))
	case len(cs.Alerts) > 0:
		fmt.Fprintf(b, "  alerts: %d rules, all inactive\n", len(cs.Alerts))
	}
	if cs.Dropped > 0 {
		fmt.Fprintf(b, "  merge dropped %d series (histogram layout skew across shards)\n", cs.Dropped)
	}

	// Per-shard columns over the interval diff (gauges pass through, counter
	// and histogram readings become interval deltas).
	first := !t.ok
	diffs := make([]obs.Snapshot, len(cs.Shards))
	for i, sh := range cs.Shards {
		diffs[i] = obs.Diff(t.prev[sh.Shard], sh.Metrics)
		t.prev[sh.Shard] = sh.Metrics
	}
	t.ok = true
	fmt.Fprintf(b, "  %-16s", "shard")
	for _, sh := range cs.Shards {
		name := sh.Shard
		if sh.Err != "" {
			name += "!" // scrape failed this round
		}
		fmt.Fprintf(b, " %12s", name)
	}
	b.WriteByte('\n')
	row := func(label string, cell func(i int) string) {
		fmt.Fprintf(b, "  %-16s", label)
		for i := range cs.Shards {
			fmt.Fprintf(b, " %12s", cell(i))
		}
		b.WriteByte('\n')
	}
	row("commit p99", func(i int) string {
		if p99, ok := histP99(diffs[i], "redbud_mds_commit_latency_seconds", "redbud_client_commit_latency_seconds"); ok {
			return fmtSec(p99)
		}
		return "-"
	})
	row("queue len", func(i int) string {
		if v, ok := sumVal(diffs[i], obs.KindGauge, "redbud_rpc_queue_len", "redbud_client_commit_queue_len"); ok {
			return fmt.Sprintf("%d", v)
		}
		return "-"
	})
	row("inflight", func(i int) string {
		if v, ok := sumVal(diffs[i], obs.KindGauge, "redbud_rpc_inflight", "redbud_client_commit_threads"); ok {
			return fmt.Sprintf("%d", v)
		}
		return "-"
	})
	// File delegations held (MDS shards) or trusted (the clients' column), and
	// the share of the interval's opens they saved an RPC.
	row("delegations", func(i int) string {
		held, ok := sumVal(diffs[i], obs.KindGauge, "redbud_mds_delegations", "redbud_client_delegations")
		if !ok {
			return "-"
		}
		hits, _ := sumVal(diffs[i], obs.KindCounter, "redbud_client_open_hits_total")
		misses, _ := sumVal(diffs[i], obs.KindCounter, "redbud_client_open_misses_total")
		if first || hits+misses == 0 {
			return fmt.Sprintf("%d", held)
		}
		return fmt.Sprintf("%d %3.0f%%hit", held, 100*float64(hits)/float64(hits+misses))
	})
	if !first {
		rate := func(names ...string) func(i int) string {
			return func(i int) string {
				if v, ok := sumVal(diffs[i], obs.KindCounter, names...); ok {
					return fmt.Sprintf("%.1f/s", float64(v)/interval.Seconds())
				}
				return "-"
			}
		}
		row("rpcs", rate("redbud_rpc_processed_total", "redbud_client_rpcs_total"))
		row("dedup hits", rate("redbud_mds_dedup_hits_total"))
		row("retries", rate("redbud_client_retries_total"))
	}
	b.WriteByte('\n')
}

// histP99 returns the worst p99 across every series in s matching any of the
// given metric names.
func histP99(s obs.Snapshot, names ...string) (float64, bool) {
	var worst float64
	found := false
	for _, m := range s.Metrics {
		if m.Hist == nil || m.Hist.Count == 0 {
			continue
		}
		for _, n := range names {
			if m.Name == n {
				found = true
				if m.Hist.P99 > worst {
					worst = m.Hist.P99
				}
			}
		}
	}
	return worst, found
}

// sumVal sums every series of the given kind in s matching any of the names.
func sumVal(s obs.Snapshot, kind string, names ...string) (int64, bool) {
	var sum int64
	found := false
	for _, m := range s.Metrics {
		if m.Kind != kind {
			continue
		}
		for _, n := range names {
			if m.Name == n {
				found = true
				sum += m.Value
			}
		}
	}
	return sum, found
}

// render polls one target and appends its panel.
func render(b *strings.Builder, httpc *http.Client, t *target, interval time.Duration) {
	fmt.Fprintf(b, "── %s ", t.addr)
	fmt.Fprintln(b, strings.Repeat("─", max(0, 60-len(t.addr))))
	snap, err := poll(httpc, t.addr)
	if err != nil {
		fmt.Fprintf(b, "  unreachable: %v\n\n", err)
		t.ok = false
		return
	}
	d := obs.Diff(t.prev, snap)
	first := !t.ok
	t.prev, t.ok = snap, true

	// Gauges: instantaneous state worth watching.
	for _, name := range []string{
		"redbud_client_commit_queue_len", "redbud_client_commit_threads",
		"redbud_client_compound_degree", "redbud_client_delegations",
		"redbud_rpc_queue_len", "redbud_rpc_inflight", "redbud_meta_files",
		"redbud_mds_delegations",
	} {
		for _, m := range d.Metrics {
			if m.Name == name && m.Kind == obs.KindGauge {
				fmt.Fprintf(b, "  %-36s %12d  %s\n", name, m.Value, m.Labels)
			}
		}
	}
	// Histograms: commit latency quantiles over the last interval.
	for _, m := range d.Metrics {
		if m.Kind == obs.KindHistogram && m.Hist != nil && m.Hist.Count > 0 {
			fmt.Fprintf(b, "  %-36s p50 %8s  p99 %8s  n=%d  %s\n",
				m.Name, fmtSec(m.Hist.P50), fmtSec(m.Hist.P99), m.Hist.Count, m.Labels)
		}
	}
	// Counters: per-second rates from the interval delta (skip the first
	// poll, where the delta spans process lifetime).
	if !first {
		type rate struct {
			name, labels string
			persec       float64
		}
		var rates []rate
		for _, m := range d.Metrics {
			if m.Kind == obs.KindCounter && m.Value != 0 {
				rates = append(rates, rate{m.Name, m.Labels, float64(m.Value) / interval.Seconds()})
			}
		}
		sort.Slice(rates, func(i, j int) bool { return rates[i].persec > rates[j].persec })
		if len(rates) > 12 {
			rates = rates[:12]
		}
		for _, r := range rates {
			fmt.Fprintf(b, "  %-36s %12.1f/s  %s\n", r.name, r.persec, r.labels)
		}
	}
	b.WriteByte('\n')
}

// baseURL normalizes a debug address: bare ":9100" means localhost;
// "host:port" and full URLs work too.
func baseURL(addr string) string {
	switch {
	case strings.Contains(addr, "://"):
		return addr
	case strings.HasPrefix(addr, ":"):
		return "http://127.0.0.1" + addr
	default:
		return "http://" + addr
	}
}

// poll fetches and decodes one /metrics.json snapshot.
func poll(httpc *http.Client, addr string) (obs.Snapshot, error) {
	resp, err := httpc.Get(baseURL(addr) + "/metrics.json")
	if err != nil {
		return obs.Snapshot{}, err
	}
	defer resp.Body.Close()
	var s obs.Snapshot
	if err := json.NewDecoder(resp.Body).Decode(&s); err != nil {
		return obs.Snapshot{}, err
	}
	return s, nil
}

// pollCluster fetches and decodes one /cluster/metrics.json round.
func pollCluster(httpc *http.Client, addr string) (clusterSnap, error) {
	resp, err := httpc.Get(baseURL(addr) + "/cluster/metrics.json")
	if err != nil {
		return clusterSnap{}, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return clusterSnap{}, fmt.Errorf("%s: %s", addr, resp.Status)
	}
	var cs clusterSnap
	if err := json.NewDecoder(resp.Body).Decode(&cs); err != nil {
		return clusterSnap{}, err
	}
	return cs, nil
}

// fmtSec renders a duration in seconds with a sensible unit.
func fmtSec(s float64) string {
	return time.Duration(s * float64(time.Second)).Round(time.Microsecond).String()
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}
