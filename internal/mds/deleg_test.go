package mds

import (
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

// delegEnv is an MDS with two daemons on a manual clock: recall waits end by
// acknowledgement, or at an instant the test chooses.
func delegEnv(t *testing.T, incarnation uint64) (*env, *clock.Manual) {
	t.Helper()
	clk := clock.NewManual()
	ags := alloc.NewUniformAGSet(0, 256<<20, 4)
	store := meta.NewStore(meta.Config{AGs: ags, Clock: clk})
	return newEnv(t, Config{Store: store, Clock: clk, Daemons: 2, Incarnation: incarnation}), clk
}

func as(owner string, ack uint64) proto.DelegCtx { return proto.DelegCtx{Owner: owner, Ack: ack} }

// calling issues one RPC in the background.
func (e *env) calling(op uint16, req wire.Marshaler) <-chan error {
	done := make(chan error, 1)
	go func() { done <- e.cli.Call(op, req, nil) }()
	return done
}

func pending(t *testing.T, done <-chan error, why string) {
	t.Helper()
	select {
	case err := <-done:
		t.Fatalf("call returned (%v) %s", err, why)
	case <-time.After(20 * time.Millisecond):
	}
}

func finished(t *testing.T, done <-chan error, why string) {
	t.Helper()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("call failed %s: %v", why, err)
		}
	case <-time.After(5 * time.Second):
		t.Fatalf("call did not return %s", why)
	}
}

// TestDelegationOverRPC drives the whole exchange as a v5 client would: the
// create reply grants, a second owner's remove parks on a daemon thread (the
// other daemon keeps serving), every reply to the holder carries the recall
// until it is echoed, OpDelegAck ends the wait, and the counters show it.
func TestDelegationOverRPC(t *testing.T) {
	e, _ := delegEnv(t, 1)
	reg := obs.NewRegistry()
	e.srv.RegisterMetrics(reg)

	var a proto.AttrResp
	if err := e.cli.Call(proto.OpCreate, &proto.CreateReq{Parent: meta.RootID, Name: "f", Type: meta.TypeFile, Deleg: as("A", 0)}, &a); err != nil {
		t.Fatal(err)
	}
	if !a.Granted || a.RecallSeq != 0 || len(a.Recalls) != 0 {
		t.Fatalf("create reply = %+v, want a bare grant", a)
	}
	var b proto.AttrResp
	if err := e.cli.Call(proto.OpLookup, &proto.LookupReq{Parent: meta.RootID, Name: "f", Deleg: as("B", 0)}, &b); err != nil {
		t.Fatal(err)
	}
	if b.Granted || b.ID != a.ID {
		t.Fatalf("second owner's lookup = %+v, want the attributes and no grant", b)
	}

	remove := e.calling(proto.OpRemove, &proto.RemoveReq{Parent: meta.RootID, Name: "f", Deleg: as("B", 0)})
	pending(t, remove, "before the holder acknowledged")
	for i := 0; i < 2; i++ { // on every reply, not only the first
		var r proto.AttrResp
		if err := e.cli.Call(proto.OpGetAttr, &proto.GetAttrReq{ID: a.ID, Deleg: as("A", 0)}, &r); err != nil {
			t.Fatal(err)
		}
		if r.Granted || r.RecallSeq != 1 || len(r.Recalls) != 1 || r.Recalls[0] != a.ID {
			t.Fatalf("reply %d to the holder = %+v, want the recall of inode %d and no grant", i, r, a.ID)
		}
	}
	pending(t, remove, "although the holder only read")
	if err := e.cli.Call(proto.OpDelegAck, &proto.DelegCtx{Owner: "A", Ack: 1}, nil); err != nil {
		t.Fatal(err)
	}
	finished(t, remove, "after OpDelegAck")
	if err := e.cli.Call(proto.OpGetAttr, &proto.GetAttrReq{ID: a.ID}, &proto.AttrResp{}); err == nil {
		t.Fatal("the file survived its remove")
	}

	want := map[string]int64{
		"redbud_mds_deleg_grants_total":        1,
		"redbud_mds_deleg_recalls_total":       1,
		"redbud_mds_deleg_recall_lapses_total": 0,
		"redbud_mds_delegations":               0,
	}
	waits := int64(-1)
	for _, m := range reg.Snapshot().Metrics {
		if v, ok := want[m.Name]; ok {
			if m.Value != v {
				t.Errorf("%s = %d, want %d", m.Name, m.Value, v)
			}
			delete(want, m.Name)
		}
		if m.Name == "redbud_mds_deleg_recall_wait_seconds" && m.Hist != nil {
			waits = m.Hist.Count
		}
	}
	if len(want) != 0 || waits != 1 {
		t.Fatalf("metrics missing from the registry: %v; recall-wait samples %d, want 1", want, waits)
	}
}

// TestRecallEchoedOnNextRequest: the holder's next request acknowledges by
// echoing the sequence number, with no OpDelegAck at all — and a commit by
// another owner is one of the mutations that wait.
func TestRecallEchoedOnNextRequest(t *testing.T) {
	e, _ := delegEnv(t, 1)
	var a proto.AttrResp
	if err := e.cli.Call(proto.OpCreate, &proto.CreateReq{Parent: meta.RootID, Name: "f", Type: meta.TypeFile, Deleg: as("A", 0)}, &a); err != nil {
		t.Fatal(err)
	}
	var lay proto.LayoutResp
	if err := e.cli.Call(proto.OpLayoutGet, &proto.LayoutGetReq{Owner: "B", File: a.ID, Len: 4096, Flags: meta.LayoutWrite}, &lay); err != nil {
		t.Fatal(err)
	}
	commit := e.calling(proto.OpCommit, &proto.CommitReq{Owner: "B", File: a.ID, Size: 4096, MTime: clock.Epoch, CommitID: 1, Extents: lay.Extents})
	pending(t, commit, "while another owner holds the file")
	var r proto.AttrResp
	if err := e.cli.Call(proto.OpLookup, &proto.LookupReq{Parent: meta.RootID, Name: "f", Deleg: as("A", 0)}, &r); err != nil || r.RecallSeq != 1 {
		t.Fatalf("lookup = %+v, %v; want the recall", r, err)
	}
	pending(t, commit, "before the echo")
	if err := e.cli.Call(proto.OpRemove, &proto.RemoveReq{Parent: meta.RootID, Name: "nothing", Deleg: as("A", 1)}, nil); err == nil {
		t.Fatal("remove of a missing name succeeded")
	}
	finished(t, commit, "after the holder's next request echoed the recall")
	if err := e.cli.Call(proto.OpGetAttr, &proto.GetAttrReq{ID: a.ID, Deleg: as("A", 1)}, &r); err != nil || r.Size != 4096 || r.Granted || len(r.Recalls) != 0 {
		t.Fatalf("attributes after the commit = %+v, %v; want the new size, no grant, nothing pending", r, err)
	}
}

// TestRecallWaitIsBoundedByTheLease: with the holder silent and every daemon
// but one parked behind it, the mutations go through at the instant the
// holder's lease runs out, and the lapse is counted.
func TestRecallWaitIsBoundedByTheLease(t *testing.T) {
	e, clk := delegEnv(t, 1)
	for _, name := range []string{"f", "g"} {
		if err := e.cli.Call(proto.OpCreate, &proto.CreateReq{Parent: meta.RootID, Name: name, Type: meta.TypeFile, Deleg: as("A", 0)}, &proto.AttrResp{}); err != nil {
			t.Fatal(err)
		}
	}
	// Two removes take both daemons; the acknowledgement that follows queues
	// behind them and cannot help: only the lease can.
	rf := e.calling(proto.OpRemove, &proto.RemoveReq{Parent: meta.RootID, Name: "f", Deleg: as("B", 0)})
	rg := e.calling(proto.OpRemove, &proto.RemoveReq{Parent: meta.RootID, Name: "g", Deleg: as("C", 0)})
	deadline := time.Now().Add(5 * time.Second)
	for clk.Waiters() < 2 {
		if time.Now().After(deadline) {
			t.Fatalf("%d recall waits on the clock, want 2", clk.Waiters())
		}
		time.Sleep(100 * time.Microsecond)
	}
	ack := e.calling(proto.OpDelegAck, &proto.DelegCtx{Owner: "A", Ack: 2})
	clk.Advance(meta.DelegTerm - time.Nanosecond)
	pending(t, rf, "inside the holder's lease")
	pending(t, ack, "with every daemon parked in a recall wait")
	clk.Advance(time.Nanosecond)
	finished(t, rf, "when the lease ran out")
	finished(t, rg, "when the lease ran out")
	finished(t, ack, "once a daemon was free")
	// (The second recall may be ended by the late acknowledgement racing its
	// own timer.)
	if st := e.srv.Store().FileDelegs().Stats(); st.Lapses < 1 || st.Held != 0 {
		t.Fatalf("stats = %+v, want a lapse counted and an empty table", st)
	}
}

// TestV4PeerNeverSeesDelegations: a request without a delegation context —
// all a client sends on a link whose hello has not succeeded — is answered
// without the delegation group, byte for byte, grants nothing, and still
// recalls from a holder like any stranger.
func TestV4PeerNeverSeesDelegations(t *testing.T) {
	e, _ := delegEnv(t, 1)
	raw, err := e.cli.CallRaw(proto.OpCreate, wire.Encode(&proto.CreateReq{Parent: meta.RootID, Name: "f", Type: meta.TypeFile}))
	if err != nil {
		t.Fatal(err)
	}
	var a proto.AttrResp
	if err := wire.Decode(raw, &a); err != nil {
		t.Fatal(err)
	}
	plain := proto.AttrResp{ID: a.ID, Type: a.Type, Size: a.Size, MTime: a.MTime}
	if string(raw) != string(wire.Encode(&plain)) || a.Granted {
		t.Fatalf("anonymous create was answered with %d bytes, the frame without the delegation group has %d", len(raw), len(wire.Encode(&plain)))
	}
	if st := e.srv.Store().FileDelegs().Stats(); st.Grants != 0 {
		t.Fatalf("an anonymous create was granted: %+v", st)
	}
	var r proto.AttrResp
	if err := e.cli.Call(proto.OpLookup, &proto.LookupReq{Parent: meta.RootID, Name: "f", Deleg: as("A", 0)}, &r); err != nil || !r.Granted {
		t.Fatalf("v5 lookup = %+v, %v; want the grant", r, err)
	}
	remove := e.calling(proto.OpRemove, &proto.RemoveReq{Parent: meta.RootID, Name: "f"})
	pending(t, remove, "while a v5 client holds the file")
	if err := e.cli.Call(proto.OpDelegAck, &proto.DelegCtx{Owner: "A", Ack: 1}, nil); err != nil {
		t.Fatal(err)
	}
	finished(t, remove, "after the acknowledgement")
}

// TestRestartedMDSHoldsMutationsForOneTerm: Incarnation > 1 starts with a
// grace period.
func TestRestartedMDSHoldsMutationsForOneTerm(t *testing.T) {
	e, clk := delegEnv(t, 2)
	old, err := e.srv.Store().Create(meta.RootID, "old", meta.TypeFile) // journal replay, as far as the server knows
	if err != nil {
		t.Fatal(err)
	}
	var r proto.AttrResp
	if err := e.cli.Call(proto.OpLookup, &proto.LookupReq{Parent: meta.RootID, Name: "old", Deleg: as("A", 0)}, &r); err != nil || r.Granted || r.ID != old.ID {
		t.Fatalf("lookup during the grace period = %+v, %v; want attributes without a grant", r, err)
	}
	remove := e.calling(proto.OpRemove, &proto.RemoveReq{Parent: meta.RootID, Name: "old", Deleg: as("A", 0)})
	deadline := time.Now().Add(5 * time.Second)
	for clk.Waiters() < 1 {
		if time.Now().After(deadline) {
			t.Fatal("the remove is not waiting on the clock")
		}
		time.Sleep(100 * time.Microsecond)
	}
	clk.Advance(meta.DelegTerm - time.Nanosecond)
	pending(t, remove, "inside the grace period")
	clk.Advance(time.Nanosecond)
	finished(t, remove, "at the end of the grace period")
}

// A mutation that waited for a recall is stamped with the instant the wait
// ended, not with the deadline its daemon charged it to: the wait is not
// modeled, so the handler continues from now. On a zero-latency journal a
// record is durable at its stamp, so the completion's durable instant is the
// stamp itself. Both retry loops are covered: the commit's own and mutate's.
func TestRetryAfterRecallStampedAtItsEnd(t *testing.T) {
	for _, tc := range []struct {
		name string
		op   uint16
		req  func(id meta.FileID, lay proto.LayoutResp) wire.Marshaler
	}{
		{"commit", proto.OpCommit, func(id meta.FileID, lay proto.LayoutResp) wire.Marshaler {
			return &proto.CommitReq{Owner: "B", File: id, Size: 4096, MTime: time.Unix(7, 0).UTC(), CommitID: 1, Extents: lay.Extents}
		}},
		{"remove", proto.OpRemove, func(meta.FileID, proto.LayoutResp) wire.Marshaler {
			return &proto.RemoveReq{Parent: meta.RootID, Name: "f", Deleg: as("B", 0)}
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			mc := clock.NewManual()
			dev := blockdev.New(blockdev.Config{Size: 64 << 20, Model: blockdev.ZeroLatency(), Clock: mc})
			t.Cleanup(dev.Close)
			store := meta.NewStore(meta.Config{AGs: testAGs(), Journal: meta.NewJournal(dev, 0, testJournalSize), Clock: mc})
			srv := New(Config{Store: store, Clock: mc})
			t.Cleanup(srv.Close)

			// call runs one operation at the modeled instant at and waits
			// out its completion.
			t0 := mc.Now()
			call := func(op uint16, req wire.Marshaler, resp wire.Unmarshaler) (time.Time, error) {
				body, err := srv.handle(t0, op, wire.Encode(req))
				var at time.Time
				if complete, ok := err.(rpc.Pending); ok {
					body, at, err = complete()
				}
				if err == nil && resp != nil {
					err = wire.Decode(body, resp)
				}
				return at, err
			}
			var a proto.AttrResp
			if _, err := call(proto.OpCreate, &proto.CreateReq{Parent: meta.RootID, Name: "f", Type: meta.TypeFile, Deleg: as("A", 0)}, &a); err != nil || !a.Granted {
				t.Fatalf("create: %+v, %v; want A to hold the delegation", a, err)
			}
			var lay proto.LayoutResp
			if _, err := call(proto.OpLayoutGet, &proto.LayoutGetReq{Owner: "B", File: a.ID, Len: 4096, Flags: meta.LayoutWrite}, &lay); err != nil {
				t.Fatal(err)
			}
			type result struct {
				at  time.Time
				err error
			}
			done := make(chan result, 1)
			go func() {
				at, err := call(tc.op, tc.req(a.ID, lay), nil)
				done <- result{at, err}
			}()
			// The mutation waits for A's recall, which ends when A's lease
			// lapses.
			for deadline := time.Now().Add(5 * time.Second); mc.Waiters() == 0; time.Sleep(100 * time.Microsecond) {
				if time.Now().After(deadline) {
					t.Fatal("the mutation never waited for the recall")
				}
			}
			mc.AdvanceToNext()
			recallEnd := mc.Now()
			r := <-done
			if r.err != nil {
				t.Fatal(r.err)
			}
			if !r.at.Equal(recallEnd) {
				t.Fatalf("durable at +%v, want +%v: the retry was stamped before the recall ended", r.at.Sub(t0), recallEnd.Sub(t0))
			}
		})
	}
}
