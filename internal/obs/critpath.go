package obs

import (
	"fmt"
	"sort"
	"strings"
	"time"
)

// Canonical span names recorded by the instrumented layers. The critical-path
// analyzer keys on them, so instrumentation and analysis agree by construction.
const (
	// Client commit lifecycle (CommitID-correlated).
	SpanCommitQueue    = "commit.queue"    // enqueue → commit daemon dequeues the file
	SpanCommitDataWait = "commit.datawait" // ordered-write wait for outstanding device writes
	SpanCommitRPC      = "commit.rpc"      // commit RPC send → reply (client-observed)
	// MDS commit handling (CommitID-correlated).
	SpanMDSCommit   = "mds.commit"   // dispatch → response encoded
	SpanMDSLockWait = "mds.lockwait" // namespace + stripe lock wait
	SpanMDSApply    = "mds.apply"    // extent/attr application under the stripe lock
	SpanMDSJournal  = "mds.journal"  // journal group-commit durability wait
	// Shared-array device lifecycle (pre-commit data path, CommitID 0).
	SpanDevQueue    = "dev.queue" // submit → elevator dispatch
	SpanDevSeek     = "dev.seek"  // head movement + rotation
	SpanDevTransfer = "dev.xfer"  // media transfer
	// Metadata network and RPC server (CommitID 0).
	SpanNetWait     = "net.wait"     // ingress-link queueing
	SpanNetXmit     = "net.xmit"     // serialization + propagation
	SpanRPCQueue    = "rpc.queue"    // request queue wait at the server
	SpanRPCProcess  = "rpc.process"  // daemon-thread occupancy per frame
	SpanRPCComplete = "rpc.complete" // daemon freed → pending completions done, reply handed off
	SpanRPCReply    = "rpc.reply"    // reply handed off → reply delivered
	// Application thread (CommitID 0).
	SpanAppWrite = "write.app" // WriteAt entry → return
	// Open entry → return, one span per call named after how the attributes
	// were found: from a file delegation with no RPC, by asking the MDS, or by
	// asking about a file whose delegation had been recalled.
	SpanOpenHit      = "open.hit"
	SpanOpenMiss     = "open.miss"
	SpanOpenRecalled = "open.recalled"
	// Read path (TraceID-correlated, one trace per ReadAt): the root covers
	// ReadAt entry → return; a child exists for each leg the read actually
	// took, in this order. What no child covers — lock waits and the copy out
	// of the page cache — is the read's cache leg (AnalyzeReads).
	SpanAppRead     = "read.app"
	SpanReadLayout  = "read.layout"  // layout probe: committed extents of a hole (RPC)
	SpanReadBarrier = "read.barrier" // wait for this client's own writes to be durable
	SpanReadDevice  = "read.device"  // device reads of what the page cache did not hold
	// Client write-back routine (CommitID 0, on the client's commit track).
	SpanWriteBehind = "write.behind" // first deferred byte → its flush's device writes issued

	// Cross-shard namespace sagas (TraceID-correlated). The root span covers
	// the whole saga on the client's ns track; the phase children cover each
	// client-observed RPC leg, and the server-side handler spans below link
	// under the phase that issued them.
	SpanNSCreate = "ns.create"
	SpanNSRemove = "ns.remove"
	SpanNSRename = "ns.rename"

	SpanNSMint       = "ns.mint"        // create: mint the detached inode on the target shard
	SpanNSLink       = "ns.link"        // create: dirent insert on the parent shard (commit point)
	SpanNSStat       = "ns.stat"        // remove: getattr on the home shard
	SpanNSPrepare    = "ns.prepare"     // remove: intent publish on the home shard
	SpanNSUnlink     = "ns.unlink"      // remove: dirent delete on the parent shard (commit point)
	SpanNSLookup     = "ns.lookup"      // rename: source entry lookup
	SpanNSPrepareSrc = "ns.prepare.src" // rename: source intent publish
	SpanNSPrepareDst = "ns.prepare.dst" // rename: destination name reservation
	SpanNSCommitSrc  = "ns.commit.src"  // rename: source dirent delete (commit point)
	SpanNSCommitDst  = "ns.commit.dst"  // rename: destination dirent insert
	SpanNSGraduate   = "ns.graduate"    // create/remove: intent graduation on the home shard
	SpanNSAbort      = "ns.abort"       // any saga: rollback after a definitive refusal

	// MDS namespace-op handling (TraceID-correlated when the request carried
	// a trace context).
	SpanMDSCreateDetached = "mds.createdetached"
	SpanMDSNSPrepare      = "mds.nsprepare"
	SpanMDSNSCommit       = "mds.nscommit"
	SpanMDSNSAbort        = "mds.nsabort"
	SpanMDSLinkRemote     = "mds.linkremote"
	SpanMDSUnlinkRemote   = "mds.unlinkremote"
)

// CommitPath is the reconstructed lifecycle of one commit. The four
// top-level stages are disjoint and contiguous, so
// Queue + DataWait + Batch + RPC == E2E exactly: Batch is defined as the
// residual between the data-wait end and the RPC send (compound assembly,
// daemon scheduling), absorbing any rounding.
type CommitPath struct {
	ID    uint64
	Start time.Time
	E2E   time.Duration

	Queue    time.Duration // commit-queue wait (0 in sync mode)
	DataWait time.Duration // ordered-write wait for data durability
	Batch    time.Duration // residual: batching/assembly between build and send
	RPC      time.Duration // commit RPC round trip

	// Informational decomposition of RPC (server-side, matched by CommitID).
	Server   time.Duration // MDS handler occupancy (mds.commit)
	Wire     time.Duration // RPC - Server: network + server queueing
	LockWait time.Duration // stripe/namespace lock wait inside the store
	Apply    time.Duration // metadata application
	Journal  time.Duration // journal group-commit wait
}

// Stage is one aggregated bucket of the breakdown table.
type Stage struct {
	Name  string
	Total time.Duration
	Count int64 // commits contributing a nonzero value
}

// Breakdown aggregates per-commit critical paths, plus the cross-shard
// namespace sagas the trace carried (empty when nothing cross-shard ran).
type Breakdown struct {
	Commits   int
	E2E       time.Duration // summed end-to-end latency
	Stages    []Stage       // top level; totals sum to E2E exactly
	Sub       []Stage       // nested decomposition of the rpc stage
	PerCommit []CommitPath  // sorted by CommitID
	Sagas     []SagaPath    // sorted by TraceID
}

// SagaPath is the reconstructed lifecycle of one cross-shard namespace saga
// (create/remove/rename), decomposed into its client-observed RPC legs.
type SagaPath struct {
	TraceID uint64
	Kind    string // root span name: ns.create, ns.remove, or ns.rename
	Start   time.Time
	E2E     time.Duration
	Phases  []SagaPhase // legs in time order
}

// SagaPhase is one leg of a saga: the client-observed duration plus the
// server-side handler occupancy that linked under it (0 when the server span
// was not captured — e.g. it ran on a shard whose ring wrapped).
type SagaPhase struct {
	Name     string
	Duration time.Duration
	Server   time.Duration
}

// Analyze reconstructs per-commit critical paths from a span stream.
// Commits without a commit.rpc span (still in flight when the trace was
// taken) are skipped.
func Analyze(spans []Span) *Breakdown {
	type acc struct {
		queue, datawait, rpc        *Span
		server, lock, apply, journl time.Duration
	}
	commits := make(map[uint64]*acc)
	get := func(id uint64) *acc {
		a := commits[id]
		if a == nil {
			a = &acc{}
			commits[id] = a
		}
		return a
	}
	for i := range spans {
		s := spans[i]
		if s.CommitID == 0 {
			continue
		}
		a := get(s.CommitID)
		switch s.Name {
		case SpanCommitQueue:
			a.queue = widen(a.queue, s)
		case SpanCommitDataWait:
			a.datawait = widen(a.datawait, s)
		case SpanCommitRPC:
			a.rpc = widen(a.rpc, s) // retries widen to first send → last reply
		case SpanMDSCommit:
			a.server += s.Duration()
		case SpanMDSLockWait:
			a.lock += s.Duration()
		case SpanMDSApply:
			a.apply += s.Duration()
		case SpanMDSJournal:
			a.journl += s.Duration()
		}
	}

	b := &Breakdown{}
	for id, a := range commits {
		if a.rpc == nil {
			continue
		}
		p := CommitPath{ID: id}
		start := a.rpc.Start
		if a.datawait != nil {
			start = a.datawait.Start
			p.DataWait = a.datawait.Duration()
		}
		if a.queue != nil {
			start = a.queue.Start
			p.Queue = a.queue.Duration()
		}
		p.Start = start
		p.E2E = a.rpc.End.Sub(start)
		p.RPC = a.rpc.Duration()
		// Residual: everything between the end of the data wait and the RPC
		// send — compound assembly and daemon scheduling. Defined as the
		// remainder so the top-level stages sum to E2E exactly.
		p.Batch = p.E2E - p.Queue - p.DataWait - p.RPC
		p.Server = a.server
		if p.Server > p.RPC {
			p.Server = p.RPC // dedup replays can over-count; clamp
		}
		p.Wire = p.RPC - p.Server
		p.LockWait, p.Apply, p.Journal = a.lock, a.apply, a.journl
		b.PerCommit = append(b.PerCommit, p)
	}
	sort.Slice(b.PerCommit, func(i, j int) bool { return b.PerCommit[i].ID < b.PerCommit[j].ID })

	b.Commits = len(b.PerCommit)
	stages := make([]Stage, 4)
	stages[0].Name, stages[1].Name, stages[2].Name, stages[3].Name = "queue", "datawait", "batch", "rpc"
	sub := make([]Stage, 5)
	sub[0].Name, sub[1].Name, sub[2].Name, sub[3].Name, sub[4].Name =
		"rpc.wire", "rpc.server", "server.lockwait", "server.apply", "server.journal"
	for _, p := range b.PerCommit {
		b.E2E += p.E2E
		addStage(&stages[0], p.Queue)
		addStage(&stages[1], p.DataWait)
		addStage(&stages[2], p.Batch)
		addStage(&stages[3], p.RPC)
		addStage(&sub[0], p.Wire)
		addStage(&sub[1], p.Server)
		addStage(&sub[2], p.LockWait)
		addStage(&sub[3], p.Apply)
		addStage(&sub[4], p.Journal)
	}
	b.Stages = stages
	b.Sub = sub
	b.Sagas = analyzeSagas(spans)
	return b
}

// analyzeSagas reconstructs cross-shard namespace sagas from their linked
// spans: the ns.* root (SpanID == TraceID), its client phase legs (Parent ==
// TraceID), and the server handler spans that link under each leg.
func analyzeSagas(spans []Span) []SagaPath {
	type acc struct {
		root   *Span
		phases []Span
	}
	sagas := make(map[uint64]*acc)
	serverByParent := make(map[uint64]time.Duration)
	for i := range spans {
		s := spans[i]
		if s.TraceID == 0 {
			continue
		}
		switch {
		case s.Name == SpanNSCreate || s.Name == SpanNSRemove || s.Name == SpanNSRename:
			a := sagas[s.TraceID]
			if a == nil {
				a = &acc{}
				sagas[s.TraceID] = a
			}
			a.root = widen(a.root, s)
		case strings.HasPrefix(s.Name, "ns."):
			a := sagas[s.TraceID]
			if a == nil {
				a = &acc{}
				sagas[s.TraceID] = a
			}
			a.phases = append(a.phases, s)
		case s.Parent != 0:
			// Server-side handler occupancy keyed by the phase it links
			// under. Commit-trace server spans land here too and are simply
			// never looked up.
			serverByParent[s.Parent] += s.Duration()
		}
	}

	var out []SagaPath
	for id, a := range sagas {
		if a.root == nil {
			continue // root evicted from the ring: the saga cannot be framed
		}
		p := SagaPath{TraceID: id, Kind: a.root.Name, Start: a.root.Start, E2E: a.root.Duration()}
		sort.Slice(a.phases, func(i, j int) bool {
			if !a.phases[i].Start.Equal(a.phases[j].Start) {
				return a.phases[i].Start.Before(a.phases[j].Start)
			}
			return a.phases[i].Name < a.phases[j].Name
		})
		for _, ph := range a.phases {
			p.Phases = append(p.Phases, SagaPhase{
				Name:     ph.Name,
				Duration: ph.Duration(),
				Server:   serverByParent[ph.SpanID],
			})
		}
		out = append(out, p)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].TraceID < out[j].TraceID })
	return out
}

func addStage(s *Stage, d time.Duration) {
	s.Total += d
	if d != 0 {
		s.Count++
	}
}

// widen keeps the envelope [min start, max end] across repeated spans of the
// same kind (RPC retries, re-enqueues).
func widen(have *Span, s Span) *Span {
	if have == nil {
		c := s
		return &c
	}
	if s.Start.Before(have.Start) {
		have.Start = s.Start
	}
	if s.End.After(have.End) {
		have.End = s.End
	}
	return have
}

// Table renders the Figure-6-style per-stage breakdown. The top-level stage
// totals sum to the end-to-end total exactly; the indented rows decompose
// the rpc stage and do not add to the sum.
func (b *Breakdown) Table() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "commit critical path: %d commits, total e2e %v", b.Commits, b.E2E)
	if b.Commits > 0 {
		fmt.Fprintf(&sb, ", mean %v", (b.E2E / time.Duration(b.Commits)).Round(time.Nanosecond))
	}
	sb.WriteByte('\n')
	fmt.Fprintf(&sb, "  %-16s %14s %14s %8s\n", "stage", "total", "mean", "% e2e")
	writeRow := func(indent, name string, s Stage) {
		var m time.Duration
		if b.Commits > 0 {
			m = s.Total / time.Duration(b.Commits)
		}
		pct := 0.0
		if b.E2E > 0 {
			pct = 100 * float64(s.Total) / float64(b.E2E)
		}
		fmt.Fprintf(&sb, "  %-16s %14v %14v %7.1f%%\n", indent+name, s.Total, m, pct)
	}
	for _, s := range b.Stages {
		writeRow("", s.Name, s)
	}
	writeRow("", "e2e", Stage{Name: "e2e", Total: b.E2E})
	for _, s := range b.Sub {
		writeRow("  ", s.Name, s)
	}
	if len(b.Sagas) > 0 {
		sb.WriteString(b.sagaTable())
	}
	return sb.String()
}

// sagaTable renders the per-phase leg breakdown of cross-shard namespace
// sagas, aggregated per saga kind. The server column is the portion of each
// leg spent inside the remote MDS handler; the rest is wire + queueing.
func (b *Breakdown) sagaTable() string {
	type agg struct {
		count  int
		e2e    time.Duration
		order  []string
		legs   map[string]*Stage
		server map[string]time.Duration
	}
	kinds := make(map[string]*agg)
	var kindOrder []string
	for _, s := range b.Sagas {
		a := kinds[s.Kind]
		if a == nil {
			a = &agg{legs: make(map[string]*Stage), server: make(map[string]time.Duration)}
			kinds[s.Kind] = a
			kindOrder = append(kindOrder, s.Kind)
		}
		a.count++
		a.e2e += s.E2E
		for _, ph := range s.Phases {
			st := a.legs[ph.Name]
			if st == nil {
				st = &Stage{Name: ph.Name}
				a.legs[ph.Name] = st
				a.order = append(a.order, ph.Name)
			}
			addStage(st, ph.Duration)
			a.server[ph.Name] += ph.Server
		}
	}
	sort.Strings(kindOrder)

	var sb strings.Builder
	for _, kind := range kindOrder {
		a := kinds[kind]
		mean := time.Duration(0)
		if a.count > 0 {
			mean = (a.e2e / time.Duration(a.count)).Round(time.Nanosecond)
		}
		fmt.Fprintf(&sb, "saga %s: %d sagas, total e2e %v, mean %v\n", kind, a.count, a.e2e, mean)
		fmt.Fprintf(&sb, "  %-16s %14s %14s %14s %8s\n", "leg", "total", "mean", "server", "% e2e")
		for _, name := range a.order {
			st := a.legs[name]
			var m time.Duration
			if a.count > 0 {
				m = st.Total / time.Duration(a.count)
			}
			pct := 0.0
			if a.e2e > 0 {
				pct = 100 * float64(st.Total) / float64(a.e2e)
			}
			fmt.Fprintf(&sb, "  %-16s %14v %14v %14v %7.1f%%\n", name, st.Total, m, a.server[name], pct)
		}
	}
	return sb.String()
}
