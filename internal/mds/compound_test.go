package mds

import (
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"redbud/internal/alloc"
	"redbud/internal/blockdev"
	"redbud/internal/clock"
	"redbud/internal/meta"
	"redbud/internal/obs"
	"redbud/internal/proto"
	"redbud/internal/rpc"
	"redbud/internal/wire"
)

const (
	testDataSpace   = 256 << 20
	testJournalSize = 32 << 20
)

// journaledEnv is an MDS over a journaled store whose metadata device runs
// on a hand-stepped clock: while hold is set no journal write completes, so
// a test can look at a frame whose sub-operations are all applied and none
// durable.
type journaledEnv struct {
	*env
	clk     clock.Clock // the MDS's and the store's clock
	dev     *blockdev.Device
	journal *meta.Journal
	hold    atomic.Bool
}

func testAGs() *alloc.AGSet { return alloc.NewUniformAGSet(0, testDataSpace, 4) }

// newJournaledEnv builds the environment; tr, if non-nil, traces the MDS and
// its store.
func newJournaledEnv(t *testing.T, tr *obs.Tracer) *journaledEnv {
	t.Helper()
	return newShardEnv(t, tr, 0, 1)
}

// newShardEnv is newJournaledEnv for shard of a namespace of shards, served
// by one daemon.
func newShardEnv(t *testing.T, tr *obs.Tracer, shard, shards int) *journaledEnv {
	t.Helper()
	mc := clock.NewManual()
	je := &journaledEnv{clk: clock.Real(1)}
	je.dev = blockdev.New(blockdev.Config{Size: 64 << 20, Model: blockdev.FastHDD(), Clock: mc})
	t.Cleanup(je.dev.Close)
	je.journal = meta.NewJournal(je.dev, 0, testJournalSize)
	stop := make(chan struct{})
	t.Cleanup(func() { close(stop) })
	go func() {
		for {
			select {
			case <-stop:
				return
			default:
			}
			if je.hold.Load() || !mc.AdvanceToNext() {
				time.Sleep(50 * time.Microsecond)
			}
		}
	}()
	je.env = newEnv(t, Config{Tracer: tr, Clock: je.clk, Daemons: 1, ShardIndex: uint32(shard), ShardCount: uint32(shards),
		Store: meta.NewStore(meta.Config{AGs: testAGs(), Journal: je.journal, Clock: je.clk, Tracer: tr, Shard: shard, ShardCount: shards})})
	return je
}

// commitOps creates n files, allocates file i a layout of (i+1) 4 KiB blocks
// and returns one commit sub-operation per file, in creation order, with
// commit IDs firstID, firstID+1, ...
func (je *journaledEnv) commitOps(t *testing.T, n int, firstID uint64) ([]rpc.SubOp, []proto.AttrResp) {
	t.Helper()
	var ops []rpc.SubOp
	var files []proto.AttrResp
	for i := 0; i < n; i++ {
		a := je.create(t, meta.RootID, fmt.Sprintf("f%d-%d", firstID, i), meta.TypeFile)
		size := int64(i+1) * 4096
		var lay proto.LayoutResp
		if err := je.cli.Call(proto.OpLayoutGet, &proto.LayoutGetReq{Owner: "c1", File: a.ID, Off: 0, Len: size, Flags: meta.LayoutWrite}, &lay); err != nil {
			t.Fatal(err)
		}
		req := proto.CommitReq{Owner: "c1", File: a.ID, Size: size, MTime: time.Unix(7, 0).UTC(), CommitID: firstID + uint64(i), Extents: lay.Extents}
		ops = append(ops, rpc.SubOp{Op: proto.OpCommit, Body: wire.Encode(&req)})
		files = append(files, a)
	}
	return ops, files
}

// compoundHeld sends ops as one compound with journal writes held back,
// waits until every sub-operation has been applied, runs whileApplied, lets
// the journal go and returns the frame's results.
func (je *journaledEnv) compoundHeld(t *testing.T, ops []rpc.SubOp, whileApplied func()) []rpc.SubResult {
	t.Helper()
	je.hold.Store(true)
	subOps := func() int64 { return metric(je.srv, "redbud_rpc_subops_total").Value }
	before := subOps()
	type outcome struct {
		res []rpc.SubResult
		err error
	}
	done := make(chan outcome, 1)
	go func() {
		res, err := je.cli.Compound(ops)
		done <- outcome{res, err}
	}()
	deadline := time.Now().Add(5 * time.Second)
	for subOps() < before+int64(len(ops)) {
		if time.Now().After(deadline) {
			t.Fatalf("%d of %d sub-operations applied with the journal held back: the daemon waits for durability between them",
				subOps()-before, len(ops))
		}
		time.Sleep(100 * time.Microsecond)
	}
	if whileApplied != nil {
		whileApplied()
	}
	je.hold.Store(false)
	out := <-done
	if out.err != nil {
		t.Fatal(out.err)
	}
	return out.res
}

func (je *journaledEnv) size(t *testing.T, id meta.FileID) int64 {
	t.Helper()
	a, err := je.srv.Store().GetAttr(id)
	if err != nil {
		t.Fatal(err)
	}
	return a.Size
}

// The daemon applies all eight commits, then waits: their records ride the
// journal write already in flight plus at most one more, not one each.
func TestCompoundCommitsShareJournalWrites(t *testing.T) {
	je := newJournaledEnv(t, nil)
	ops, _ := je.commitOps(t, 8, 100)
	appends0, batches0 := je.journal.GroupCommitStats()
	results := je.compoundHeld(t, ops, nil)
	appends, batches := je.journal.GroupCommitStats()
	if appends-appends0 != 8 {
		t.Fatalf("compound appended %d journal records, want 8", appends-appends0)
	}
	if got := batches - batches0; got > 2 {
		t.Fatalf("compound of 8 commits cost %d journal device writes, want at most 2", got)
	}
	for i, res := range results {
		if res.Err != nil {
			t.Fatalf("sub-op %d: %v", i, res.Err)
		}
		var resp proto.CommitResp
		if err := wire.Decode(res.Body, &resp); err != nil {
			t.Fatal(err)
		}
		if want := int64(i+1) * 4096; resp.Size != want {
			t.Fatalf("result %d reports size %d, want %d: results out of frame order", i, resp.Size, want)
		}
	}
}

// A sub-operation rejected by validation fails in its own slot and changes
// nothing; the commits before and after it go through.
func TestCompoundSubOpFailureKeepsItsSlot(t *testing.T) {
	je := newJournaledEnv(t, nil)
	ops, files := je.commitOps(t, 3, 200)
	// The middle commit names space the MDS never allocated.
	bad := proto.CommitReq{Owner: "c1", File: files[1].ID, Size: 8192, MTime: time.Unix(7, 0).UTC(), CommitID: 201,
		Extents: []meta.Extent{{FileOff: 0, Len: 8192, Dev: 0, VolOff: 200 << 20}}}
	ops[1].Body = wire.Encode(&bad)
	appends0, _ := je.journal.GroupCommitStats()
	results := je.compoundHeld(t, ops, nil)
	if results[0].Err != nil || results[2].Err != nil {
		t.Fatalf("neighbours of the failed sub-op: %v, %v", results[0].Err, results[2].Err)
	}
	if results[1].Err == nil {
		t.Fatal("commit of unallocated space succeeded")
	}
	if got := []int64{je.size(t, files[0].ID), je.size(t, files[1].ID), je.size(t, files[2].ID)}; got[0] != 4096 || got[1] != 0 || got[2] != 12288 {
		t.Fatalf("sizes after the frame = %v, want [4096 0 12288]", got)
	}
	if appends, _ := je.journal.GroupCommitStats(); appends-appends0 != 2 {
		t.Fatalf("frame appended %d journal records, want 2: the rejected commit reached the journal", appends-appends0)
	}
	if _, ok := je.srv.dedup.lookup("c1", 201); ok {
		t.Fatal("rejected commit was remembered in the dedup window")
	}
}

// A compound is applied but not durable when its first journal write tears.
// The journal stops there, so the batches behind the tear are never written
// even though the device would take them: nothing of the frame may have been
// acknowledged or remembered, and what recovery finds is a prefix of the
// frame.
func TestCompoundTornJournalWrite(t *testing.T) {
	je := newJournaledEnv(t, nil)
	ops, files := je.commitOps(t, 6, 300)
	results := je.compoundHeld(t, ops, func() {
		var torn bool
		je.dev.SetWriteFault(func(off, n int64) (blockdev.WriteFault, int64) {
			if torn {
				return blockdev.WriteOK, 0
			}
			torn = true
			return blockdev.WriteTorn, n / 2
		})
	})
	for i, res := range results {
		if res.Err == nil {
			t.Errorf("sub-op %d acknowledged although its frame's journal write tore", i)
		}
		if _, ok := je.srv.dedup.lookup("c1", 300+uint64(i)); ok {
			t.Errorf("sub-op %d has a dedup-window entry without a durable record", i)
		}
	}
	je.dev.SetWriteFault(nil)

	rec, _, err := meta.Recover(meta.Config{AGs: testAGs(), Journal: meta.NewJournal(je.dev, 0, testJournalSize), Clock: clock.Real(1)})
	if err != nil {
		t.Fatal(err)
	}
	committed := 0
	for i, f := range files {
		a, err := rec.GetAttr(f.ID)
		if err != nil {
			t.Fatal(err)
		}
		switch a.Size {
		case int64(i+1) * 4096:
			if committed != i {
				t.Fatalf("commit %d survived the crash but commit %d did not: replay is not a prefix of the frame", i, committed)
			}
			committed++
		case 0:
		default:
			t.Fatalf("file %d recovered with size %d", i, a.Size)
		}
	}
	if committed == len(files) {
		t.Fatal("every commit of the torn frame survived")
	}
	if rep := rec.Fsck(testDataSpace); !rep.OK() {
		t.Fatalf("fsck after recovery: %s", rep)
	}
	// The ordered write put the data down before any of these commits was
	// sent, so every extent they name is durable.
	if bad := rec.CheckConsistent(func(int, int64, int64) bool { return true }); len(bad) != 0 {
		t.Fatalf("committed extents over non-durable data: %v", bad)
	}
}

// A compound whose reply was lost is sent again: every sub-operation is
// answered from the dedup window, none reaches the store.
func TestRetransmittedCompoundAnsweredFromDedupWindow(t *testing.T) {
	je := newJournaledEnv(t, nil)
	ops, _ := je.commitOps(t, 4, 400)
	first, err := je.cli.Compound(ops)
	if err != nil {
		t.Fatal(err)
	}
	appends0, _ := je.journal.GroupCommitStats()
	hits0 := metric(je.srv, "redbud_mds_dedup_hits_total").Value
	again, err := je.cli.Compound(ops)
	if err != nil {
		t.Fatal(err)
	}
	if got := metric(je.srv, "redbud_mds_dedup_hits_total").Value - hits0; got != 4 {
		t.Fatalf("retransmission hit the dedup window %d times, want 4", got)
	}
	if appends, _ := je.journal.GroupCommitStats(); appends != appends0 {
		t.Fatalf("retransmission appended %d journal records", appends-appends0)
	}
	for i := range first {
		if first[i].Err != nil || again[i].Err != nil || string(first[i].Body) != string(again[i].Body) {
			t.Fatalf("sub-op %d: first (%q, %v), retransmitted (%q, %v)", i, first[i].Body, first[i].Err, again[i].Body, again[i].Err)
		}
	}
}

// The commits of a gathered compound overlap on the server: their mds.journal
// spans run side by side and all end when the frame's wait ends. The analyzer
// must still split every commit's RPC leg exactly into wire and server, or
// the benchmark's commit-leg identity breaks.
func TestGatheredCommitSpansKeepRPCDecompositionExact(t *testing.T) {
	tr := obs.NewTracer(0)
	je := newJournaledEnv(t, tr)

	const k = 4
	ops, _ := je.commitOps(t, k, 500)
	sent := je.clk.Now()
	results := je.compoundHeld(t, ops, nil)
	replied := je.clk.Now()
	for i, res := range results {
		if res.Err != nil {
			t.Fatalf("sub-op %d: %v", i, res.Err)
		}
		// The client's view of each commit: one RPC leg, the whole frame.
		tr.Record("c1/commit", obs.SpanCommitRPC, 500+uint64(i), sent, replied)
	}

	var journals, completes []obs.Span
	ends := map[string]map[time.Time]bool{} // span name → end times
	starts := map[string]map[time.Time]bool{}
	for _, s := range tr.Spans() {
		switch s.Name {
		case obs.SpanMDSJournal:
			journals = append(journals, s)
		case obs.SpanRPCComplete:
			completes = append(completes, s)
		}
		if ends[s.Name] == nil {
			ends[s.Name], starts[s.Name] = map[time.Time]bool{}, map[time.Time]bool{}
		}
		ends[s.Name][s.End], starts[s.Name][s.Start] = true, true
	}
	// Every frame owed a completion — the compound, and the creates and
	// layout-gets that set it up — leaves its daemon at the end of
	// rpc.process and its completion stage at the start of rpc.reply.
	if len(completes) < 1+2*k {
		t.Fatalf("%d rpc.complete spans, want one per journaled frame (%d)", len(completes), 1+2*k)
	}
	for _, c := range completes {
		if !ends[obs.SpanRPCProcess][c.Start] || !starts[obs.SpanRPCReply][c.End] {
			t.Fatalf("rpc.complete %v–%v does not join an rpc.process end to an rpc.reply start", c.Start, c.End)
		}
	}
	if len(journals) != k {
		t.Fatalf("%d mds.journal spans, want %d", len(journals), k)
	}
	for _, s := range journals[1:] {
		if !s.Start.Before(journals[0].End) {
			t.Fatalf("mds.journal of commit %d starts at %v, after commit %d's ended at %v: the waits were not gathered",
				s.CommitID, s.Start, journals[0].CommitID, journals[0].End)
		}
	}
	b := obs.Analyze(tr.Spans())
	if b.Commits != k {
		t.Fatalf("analyzer framed %d commits, want %d", b.Commits, k)
	}
	for _, p := range b.PerCommit {
		if p.Wire+p.Server != p.RPC || p.Wire < 0 || p.Server <= 0 {
			t.Fatalf("commit %d: wire %v + server %v != rpc %v", p.ID, p.Wire, p.Server, p.RPC)
		}
		if p.Queue+p.DataWait+p.Batch+p.RPC != p.E2E {
			t.Fatalf("commit %d: legs do not sum to e2e %v", p.ID, p.E2E)
		}
		if p.Journal <= 0 || p.Journal > p.Server {
			t.Fatalf("commit %d: journal %v outside its server span %v", p.ID, p.Journal, p.Server)
		}
	}
	stage := func(stages []obs.Stage, name string) time.Duration {
		for _, s := range stages {
			if s.Name == name {
				return s.Total
			}
		}
		t.Fatalf("no stage %q", name)
		return 0
	}
	if wire, server, rpcLeg := stage(b.Sub, "rpc.wire"), stage(b.Sub, "rpc.server"), stage(b.Stages, "rpc"); wire+server != rpcLeg {
		t.Fatalf("rpc.wire %v + rpc.server %v != commit.rpc %v", wire, server, rpcLeg)
	}
}
