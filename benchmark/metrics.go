package main

import (
	"fmt"
	"time"

	"redbud/internal/obs"
)

// metricDef names one metric; BENCHMARK.json repeats these tables and a test
// keeps the two in step.
type metricDef struct {
	Name   string
	Unit   string
	Better string  // "higher" or "lower"
	Bound  float64 // end-to-end only: share of the parent's median it may worsen by
}

// endToEndDefs are what a user of the file system sees. Every one is defined
// on every workload; append and delete latency exist only on varmail-dc and
// are therefore reported with the per-layer metrics. Each bound is about
// three times the widest quartile spread the metric showed on any workload
// over ten seeds, capped at the contract's 0.25 (README: steadiness).
var endToEndDefs = []metricDef{
	{"ops_per_s", "1/s", "higher", 0.20},
	{"create_p50_ms", "ms", "lower", 0.20},
	{"create_p95_ms", "ms", "lower", 0.25},
	{"read_p50_ms", "ms", "lower", 0.25},
	{"read_p95_ms", "ms", "lower", 0.25},
	{"sim_wall_s", "s", "lower", 0.20},
	{"setup_s", "s", "lower", 0.25},
}

var perLayerDefs = []metricDef{
	// Application-level latencies that exist on varmail-dc only (0 elsewhere).
	{Name: "append_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "append_p95_ms", Unit: "ms", Better: "lower"},
	{Name: "delete_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "delete_p95_ms", Unit: "ms", Better: "lower"},
	// fsapi: p50 per call, from the timing decorator of the traced run.
	{Name: "fsapi.create_ms", Unit: "ms", Better: "lower"},
	{Name: "fsapi.open_ms", Unit: "ms", Better: "lower"},
	{Name: "fsapi.write_ms", Unit: "ms", Better: "lower"},
	{Name: "fsapi.read_ms", Unit: "ms", Better: "lower"},
	{Name: "fsapi.append_ms", Unit: "ms", Better: "lower"},
	{Name: "fsapi.sync_ms", Unit: "ms", Better: "lower"},
	{Name: "fsapi.close_ms", Unit: "ms", Better: "lower"},
	{Name: "fsapi.remove_ms", Unit: "ms", Better: "lower"},
	// client: counters of the untraced run, then the commit path of the traced run.
	{Name: "client.rpcs_per_op", Unit: "1/op", Better: "lower"},
	{Name: "client.commits_per_op", Unit: "1/op", Better: "lower"},
	{Name: "client.commits_per_frame", Unit: "ratio", Better: "higher"},
	{Name: "client.queue_dedup_ratio", Unit: "ratio", Better: "higher"},
	{Name: "client.local_allocs_per_op", Unit: "1/op", Better: "higher"},
	{Name: "client.wasted_delegation_mb", Unit: "MB", Better: "lower"},
	{Name: "client.retries", Unit: "count", Better: "lower"},
	{Name: "client.commit_queue_ms", Unit: "ms", Better: "lower"},
	{Name: "client.commit_datawait_ms", Unit: "ms", Better: "lower"},
	{Name: "client.commit_batch_ms", Unit: "ms", Better: "lower"},
	{Name: "client.commit_rpc_ms", Unit: "ms", Better: "lower"},
	{Name: "client.commit_e2e_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "client.commit_e2e_p95_ms", Unit: "ms", Better: "lower"},
	{Name: "client.write_app_ms", Unit: "ms", Better: "lower"},
	// core: sampled every 10 ms.
	{Name: "core.queue_len_mean", Unit: "count", Better: "lower"},
	{Name: "core.queue_len_max", Unit: "count", Better: "lower"},
	{Name: "core.commit_threads_mean", Unit: "count", Better: "lower"},
	{Name: "rpc.frames_per_op", Unit: "1/op", Better: "lower"},
	{Name: "rpc.subops_per_frame", Unit: "ratio", Better: "higher"},
	{Name: "rpc.wire_ms", Unit: "ms", Better: "lower"},
	{Name: "rpc.queue_ms_per_frame", Unit: "ms", Better: "lower"},
	{Name: "rpc.process_ms_per_frame", Unit: "ms", Better: "lower"},
	{Name: "netsim.frames_per_op", Unit: "1/op", Better: "lower"},
	{Name: "netsim.bytes_per_op", Unit: "B/op", Better: "lower"},
	{Name: "netsim.wait_ms_per_frame", Unit: "ms", Better: "lower"},
	{Name: "netsim.xmit_ms_per_frame", Unit: "ms", Better: "lower"},
	{Name: "mds.commit_ms", Unit: "ms", Better: "lower"},
	{Name: "mds.lockwait_ms", Unit: "ms", Better: "lower"},
	{Name: "mds.apply_ms", Unit: "ms", Better: "lower"},
	{Name: "mds.journal_ms", Unit: "ms", Better: "lower"},
	{Name: "mds.dedup_hits", Unit: "count", Better: "lower"},
	{Name: "meta.journal_appends_per_op", Unit: "1/op", Better: "lower"},
	{Name: "meta.journal_appends_per_batch", Unit: "ratio", Better: "higher"},
	{Name: "meta.journal_dev_busy_frac", Unit: "frac", Better: "lower"},
	{Name: "blockdev.submits_per_op", Unit: "1/op", Better: "lower"},
	{Name: "blockdev.dispatches_per_op", Unit: "1/op", Better: "lower"},
	{Name: "blockdev.merge_ratio", Unit: "ratio", Better: "higher"},
	{Name: "blockdev.seeks_per_dispatch", Unit: "ratio", Better: "lower"},
	{Name: "blockdev.seek_mb_per_dispatch", Unit: "MB", Better: "lower"},
	{Name: "blockdev.busy_frac", Unit: "frac", Better: "lower"},
	{Name: "blockdev.written_per_user_byte", Unit: "ratio", Better: "lower"},
	{Name: "blockdev.queue_ms_per_io", Unit: "ms", Better: "lower"},
	{Name: "blockdev.seek_ms_per_io", Unit: "ms", Better: "lower"},
	{Name: "blockdev.xfer_ms_per_io", Unit: "ms", Better: "lower"},
	{Name: "obs.spans_recorded", Unit: "count", Better: "lower"},
	{Name: "obs.spans_dropped", Unit: "count", Better: "lower"},
	{Name: "obs.trace_overhead_pct", Unit: "%", Better: "lower"},
	// clock: the simulator's own measurement error on this host.
	{Name: "clock.sleep_p50_us_ask15", Unit: "us", Better: "lower"},
	{Name: "clock.sleep_p50_us_ask100", Unit: "us", Better: "lower"},
	{Name: "clock.sleep_p50_us_ask1000", Unit: "us", Better: "lower"},
	{Name: "clock.sleep_p50_us_ask5000", Unit: "us", Better: "lower"},
	// host: what the simulator process cost during the untraced window.
	{Name: "host.cpu_s", Unit: "s", Better: "lower"},
	{Name: "host.cpu_util", Unit: "frac", Better: "lower"},
	{Name: "host.cpu_ms_per_op", Unit: "ms/op", Better: "lower"},
	{Name: "host.allocs_per_op", Unit: "allocs/op", Better: "lower"},
	{Name: "host.alloc_kb_per_op", Unit: "KB/op", Better: "lower"},
	{Name: "host.gc_pause_ms", Unit: "ms", Better: "lower"},
	{Name: "host.heap_peak_mb", Unit: "MB", Better: "lower"},
	// Real-cost ledger (ledger.go).
	{Name: "wire.roundtrip_ns", Unit: "ns", Better: "lower"},
	{Name: "wire.roundtrip_allocs", Unit: "allocs/op", Better: "lower"},
	{Name: "rpc.call_ns", Unit: "ns", Better: "lower"},
	{Name: "rpc.call_allocs", Unit: "allocs/op", Better: "lower"},
	{Name: "netsim.sendrecv_ns", Unit: "ns", Better: "lower"},
	{Name: "meta.alloc_commit_ns", Unit: "ns", Better: "lower"},
	{Name: "meta.alloc_commit_allocs", Unit: "allocs/op", Better: "lower"},
	{Name: "meta.create_remove_ns", Unit: "ns", Better: "lower"},
	{Name: "meta.journal_append_ns", Unit: "ns", Better: "lower"},
	{Name: "mds.commit_ns", Unit: "ns", Better: "lower"},
	{Name: "blockdev.submit4k_ns", Unit: "ns", Better: "lower"},
	{Name: "alloc.alloc_free_ns", Unit: "ns", Better: "lower"},
	{Name: "bptree.put_ns", Unit: "ns", Better: "lower"},
	{Name: "bptree.get_ns", Unit: "ns", Better: "lower"},
	{Name: "client.write4k_ns", Unit: "ns", Better: "lower"},
	{Name: "core.queue_ns", Unit: "ns", Better: "lower"},
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// ratio is a/b, and 0 when the denominator never moved.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// cpuUtilLimit is the share of one core above which a run is flagged: the
// Go scheduler, not the modeled hardware, may then be setting virtual time.
// ISSUE.md proposed 0.5 from runs that broke at 1.5-1.9; xcdn32k-dcsd sits at
// 0.36-0.40 and drifts to 0.52 when the host's timers run fast, reading the
// same 2 140 ops/s as at 0.40, while one 20 s cluster at 0.89 read 15 % low.
const cpuUtilLimit = 0.75

func (st *runStats) opsPerSecond() float64 { return float64(st.Ops) / st.Virtual.Seconds() }

func (st *runStats) cpuUtil() float64 { return st.Host.CPU.Seconds() / st.Wall.Seconds() }

// endToEnd derives the end-to-end metrics of an untraced run.
func endToEnd(st *runStats, setup time.Duration) map[string]float64 {
	return map[string]float64{
		"ops_per_s":     st.opsPerSecond(),
		"create_p50_ms": ms(percentile(st.Lat[opCreate], 0.50)),
		"create_p95_ms": ms(percentile(st.Lat[opCreate], 0.95)),
		"read_p50_ms":   ms(percentile(st.Lat[opRead], 0.50)),
		"read_p95_ms":   ms(percentile(st.Lat[opRead], 0.95)),
		"sim_wall_s":    st.Wall.Seconds(),
		"setup_s":       setup.Seconds(),
	}
}

// counterLayers derives the per-layer metrics that come from public counters
// and the host ledger of an untraced run.
func counterLayers(st *runStats) map[string]float64 {
	ops := float64(st.Ops)
	reg := func(name string) float64 {
		var sum int64
		for _, m := range st.Reg.Metrics {
			if m.Name == name {
				sum += m.Value
			}
		}
		return float64(sum)
	}
	cl, dev := st.Client, st.Dev
	frames := reg("redbud_rpc_processed_total")
	netFrames := reg("redbud_net_messages_total")
	return map[string]float64{
		"append_p50_ms": ms(percentile(st.Lat[opAppend], 0.50)),
		"append_p95_ms": ms(percentile(st.Lat[opAppend], 0.95)),
		"delete_p50_ms": ms(percentile(st.Lat[opDelete], 0.50)),
		"delete_p95_ms": ms(percentile(st.Lat[opDelete], 0.95)),

		"client.rpcs_per_op":          float64(cl.RPCs) / ops,
		"client.commits_per_op":       float64(cl.CommitsSent) / ops,
		"client.commits_per_frame":    ratio(float64(cl.CommitsSent), float64(cl.CommitRPCs)),
		"client.queue_dedup_ratio":    ratio(float64(cl.QueueDedup), float64(cl.QueueEnqueued+cl.QueueDedup)),
		"client.local_allocs_per_op":  float64(cl.LocalAllocs) / ops,
		"client.wasted_delegation_mb": float64(cl.WastedDelegationBytes) / 1e6,
		"client.retries":              reg("redbud_client_retries_total"),

		"core.queue_len_mean":      st.QueueLenMean,
		"core.queue_len_max":       st.QueueLenMax,
		"core.commit_threads_mean": st.ThreadsMean,

		"rpc.frames_per_op":    frames / ops,
		"rpc.subops_per_frame": ratio(reg("redbud_rpc_subops_total"), frames),

		"netsim.frames_per_op": netFrames / ops,
		"netsim.bytes_per_op":  reg("redbud_net_bytes_total") / ops,

		"mds.dedup_hits": reg("redbud_mds_dedup_hits_total"),

		"meta.journal_appends_per_op":    reg("redbud_meta_journal_appends_total") / ops,
		"meta.journal_appends_per_batch": ratio(reg("redbud_meta_journal_appends_total"), reg("redbud_meta_journal_batches_total")),
		"meta.journal_dev_busy_frac":     st.MetaDevBusy.Seconds() / st.Virtual.Seconds(),

		"blockdev.submits_per_op":        float64(dev.Submitted) / ops,
		"blockdev.dispatches_per_op":     float64(dev.Dispatched) / ops,
		"blockdev.merge_ratio":           ratio(float64(dev.Merged), float64(dev.Submitted)),
		"blockdev.seeks_per_dispatch":    ratio(float64(dev.Seeks), float64(dev.Dispatched)),
		"blockdev.seek_mb_per_dispatch":  ratio(float64(dev.SeekBytes)/1e6, float64(dev.Dispatched)),
		"blockdev.busy_frac":             dev.BusyTime.Seconds() / st.Virtual.Seconds() / float64(st.DataDevices),
		"blockdev.written_per_user_byte": ratio(float64(dev.BytesWrite), float64(st.UserBytesWritten)),

		"host.cpu_s":           st.Host.CPU.Seconds(),
		"host.cpu_util":        st.cpuUtil(),
		"host.cpu_ms_per_op":   ms(st.Host.CPU) / ops,
		"host.allocs_per_op":   float64(st.Host.Mallocs) / ops,
		"host.alloc_kb_per_op": float64(st.Host.AllocBytes) / 1e3 / ops,
		"host.gc_pause_ms":     ms(st.Host.GCPause),
		"host.heap_peak_mb":    float64(st.Host.HeapSys) / 1e6,
	}
}

// traceLayers derives the per-layer metrics that come from the traced run:
// the fsapi decorator's samples and the program's own span ring. It also
// returns the commit-path breakdown and any reason the trace is unusable.
func traceLayers(st *runStats) (map[string]float64, *obs.Breakdown, []string) {
	var invalid []string
	out := make(map[string]float64)
	for k := callKind(0); k < numCallKinds; k++ {
		out["fsapi."+callNames[k]+"_ms"] = ms(percentile(st.Calls.samples[k], 0.50))
	}

	b := obs.Analyze(st.Spans)
	e2e := make([]time.Duration, len(b.PerCommit))
	for i, p := range b.PerCommit {
		e2e[i] = p.E2E
		if p.Queue+p.DataWait+p.Batch+p.RPC != p.E2E {
			invalid = append(invalid, fmt.Sprintf("commit %d: queue+datawait+batch+rpc = %v, e2e = %v",
				p.ID, p.Queue+p.DataWait+p.Batch+p.RPC, p.E2E))
			break
		}
	}
	perCommit := func(stages []obs.Stage, name string) float64 {
		for _, s := range stages {
			if s.Name == name {
				return ratio(ms(s.Total), float64(b.Commits))
			}
		}
		return 0
	}
	var legs time.Duration
	for _, s := range b.Stages {
		legs += s.Total
	}
	if legs != b.E2E {
		invalid = append(invalid, fmt.Sprintf("commit legs sum to %v, e2e total is %v", legs, b.E2E))
	}
	out["client.commit_queue_ms"] = perCommit(b.Stages, "queue")
	out["client.commit_datawait_ms"] = perCommit(b.Stages, "datawait")
	out["client.commit_batch_ms"] = perCommit(b.Stages, "batch")
	out["client.commit_rpc_ms"] = perCommit(b.Stages, "rpc")
	out["client.commit_e2e_p50_ms"] = ms(percentile(e2e, 0.50))
	out["client.commit_e2e_p95_ms"] = ms(percentile(e2e, 0.95))
	out["rpc.wire_ms"] = perCommit(b.Sub, "rpc.wire")
	out["mds.commit_ms"] = perCommit(b.Sub, "rpc.server")
	out["mds.lockwait_ms"] = perCommit(b.Sub, "server.lockwait")
	out["mds.apply_ms"] = perCommit(b.Sub, "server.apply")
	out["mds.journal_ms"] = perCommit(b.Sub, "server.journal")

	// Mean span time per unit of the layer's work: a net frame is one
	// net.xmit span, an rpc frame one rpc.process, a device I/O one dev.xfer.
	type acc struct {
		total time.Duration
		n     float64
	}
	byName := make(map[string]*acc)
	for i := range st.Spans {
		a := byName[st.Spans[i].Name]
		if a == nil {
			a = &acc{}
			byName[st.Spans[i].Name] = a
		}
		a.total += st.Spans[i].Duration()
		a.n++
	}
	per := func(span, unit string) float64 {
		s, u := byName[span], byName[unit]
		if s == nil || u == nil {
			return 0
		}
		return ms(s.total) / u.n
	}
	out["client.write_app_ms"] = per(obs.SpanAppWrite, obs.SpanAppWrite)
	out["rpc.queue_ms_per_frame"] = per(obs.SpanRPCQueue, obs.SpanRPCProcess)
	out["rpc.process_ms_per_frame"] = per(obs.SpanRPCProcess, obs.SpanRPCProcess)
	out["netsim.wait_ms_per_frame"] = per(obs.SpanNetWait, obs.SpanNetXmit)
	out["netsim.xmit_ms_per_frame"] = per(obs.SpanNetXmit, obs.SpanNetXmit)
	out["blockdev.queue_ms_per_io"] = per(obs.SpanDevQueue, obs.SpanDevTransfer)
	out["blockdev.seek_ms_per_io"] = per(obs.SpanDevSeek, obs.SpanDevTransfer)
	out["blockdev.xfer_ms_per_io"] = per(obs.SpanDevTransfer, obs.SpanDevTransfer)

	out["obs.spans_recorded"] = float64(st.SpansTotal)
	out["obs.spans_dropped"] = float64(st.SpansDropped)
	if st.SpansDropped > 0 {
		invalid = append(invalid, fmt.Sprintf("span ring wrapped: %d spans dropped", st.SpansDropped))
	}
	return out, b, invalid
}
