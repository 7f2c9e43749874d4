package mds

import (
	"errors"
	"strings"
	"testing"
	"time"

	"redbud/internal/alloc"
	"redbud/internal/clock"
	"redbud/internal/meta"
	"redbud/internal/netsim"
	"redbud/internal/proto"
	"redbud/internal/rpc"
	"redbud/internal/wire"
)

// env is a live MDS plus a connected RPC client.
type env struct {
	srv *Server
	cli *rpc.Client
	net *netsim.Network
}

func newEnv(t *testing.T, cfg Config) *env {
	t.Helper()
	if cfg.Store == nil {
		ags := alloc.NewUniformAGSet(alloc.RoundRobin, 0, 256<<20, 4)
		cfg.Store = meta.NewStore(meta.Config{AGs: ags, Clock: clock.Real(1)})
	}
	srv := New(cfg)
	n := netsim.NewNetwork(clock.Real(1))
	n.AddHost("mds", netsim.Instant())
	n.AddHost("c1", netsim.Instant())
	l, err := n.Listen("mds")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(l)
	conn, err := n.Dial("c1", "mds")
	if err != nil {
		t.Fatal(err)
	}
	cli := rpc.NewClient(conn, clock.Real(1))
	t.Cleanup(func() {
		cli.Close()
		srv.Close()
		l.Close()
	})
	return &env{srv: srv, cli: cli, net: n}
}

func (e *env) create(t *testing.T, parent meta.FileID, name string, typ meta.FileType) proto.AttrResp {
	t.Helper()
	var resp proto.AttrResp
	if err := e.cli.Call(proto.OpCreate, &proto.CreateReq{Parent: parent, Name: name, Type: typ}, &resp); err != nil {
		t.Fatal(err)
	}
	return resp
}

// settle waits out a store mutation applied with a Begin<Op>, or returns the
// store's refusal.
func settle(durable meta.Durable, err error) error {
	if err != nil {
		return err
	}
	_, err = durable()
	return err
}

// settled is settle for a Begin<Op> that also returns a value.
func settled[T any](v T, durable meta.Durable, err error) (T, error) {
	if err := settle(durable, err); err != nil {
		var zero T
		return zero, err
	}
	return v, nil
}

func TestPing(t *testing.T) {
	e := newEnv(t, Config{})
	if err := e.cli.Call(proto.OpPing, nil, nil); err != nil {
		t.Fatal(err)
	}
}

func TestCreateLookupGetAttrOverRPC(t *testing.T) {
	e := newEnv(t, Config{})
	a := e.create(t, meta.RootID, "f.txt", meta.TypeFile)
	var look proto.AttrResp
	if err := e.cli.Call(proto.OpLookup, &proto.LookupReq{Parent: meta.RootID, Name: "f.txt"}, &look); err != nil {
		t.Fatal(err)
	}
	if look.ID != a.ID {
		t.Fatalf("lookup id %d != create id %d", look.ID, a.ID)
	}
	var attr proto.AttrResp
	if err := e.cli.Call(proto.OpGetAttr, &proto.GetAttrReq{ID: a.ID}, &attr); err != nil {
		t.Fatal(err)
	}
	if attr.Type != meta.TypeFile || attr.Size != 0 {
		t.Fatalf("attr = %+v", attr)
	}
}

func TestLookupMissingIsRemoteError(t *testing.T) {
	e := newEnv(t, Config{})
	var resp proto.AttrResp
	err := e.cli.Call(proto.OpLookup, &proto.LookupReq{Parent: meta.RootID, Name: "nope"}, &resp)
	var re *rpc.RemoteError
	if !errors.As(err, &re) || !strings.Contains(re.Message, "not found") {
		t.Fatalf("err = %v", err)
	}
}

func TestReadDirAndRemoveOverRPC(t *testing.T) {
	e := newEnv(t, Config{})
	dir := e.create(t, meta.RootID, "d", meta.TypeDir)
	e.create(t, dir.ID, "x", meta.TypeFile)
	var rd proto.ReadDirResp
	if err := e.cli.Call(proto.OpReadDir, &proto.ReadDirReq{ID: dir.ID}, &rd); err != nil {
		t.Fatal(err)
	}
	if len(rd.Entries) != 1 || rd.Entries[0].Name != "x" {
		t.Fatalf("entries = %+v", rd.Entries)
	}
	if err := e.cli.Call(proto.OpRemove, &proto.RemoveReq{Parent: dir.ID, Name: "x"}, nil); err != nil {
		t.Fatal(err)
	}
	if err := e.cli.Call(proto.OpReadDir, &proto.ReadDirReq{ID: dir.ID}, &rd); err != nil {
		t.Fatal(err)
	}
	if len(rd.Entries) != 0 {
		t.Fatalf("entries after remove = %+v", rd.Entries)
	}
}

func TestLayoutGetWriteAllocates(t *testing.T) {
	e := newEnv(t, Config{})
	a := e.create(t, meta.RootID, "f", meta.TypeFile)
	var lay proto.LayoutResp
	err := e.cli.Call(proto.OpLayoutGet, &proto.LayoutGetReq{Owner: "c1", File: a.ID, Off: 0, Len: 8192, Flags: meta.LayoutWrite}, &lay)
	if err != nil {
		t.Fatal(err)
	}
	var covered int64
	for _, ext := range lay.Extents {
		covered += ext.Len
		if ext.State != meta.StateUncommitted {
			t.Fatalf("fresh extent state = %v", ext.State)
		}
	}
	if covered != 8192 {
		t.Fatalf("covered %d bytes", covered)
	}
	// Read layout hides the uncommitted extents.
	var rlay proto.LayoutResp
	if err := e.cli.Call(proto.OpLayoutGet, &proto.LayoutGetReq{File: a.ID, Off: 0, Len: 8192}, &rlay); err != nil {
		t.Fatal(err)
	}
	if len(rlay.Extents) != 0 {
		t.Fatalf("read layout shows uncommitted extents: %+v", rlay.Extents)
	}
}

func TestCommitOverRPC(t *testing.T) {
	e := newEnv(t, Config{})
	a := e.create(t, meta.RootID, "f", meta.TypeFile)
	var lay proto.LayoutResp
	if err := e.cli.Call(proto.OpLayoutGet, &proto.LayoutGetReq{Owner: "c1", File: a.ID, Off: 0, Len: 4096, Flags: meta.LayoutWrite}, &lay); err != nil {
		t.Fatal(err)
	}
	mt := time.Unix(1000, 0).UTC()
	var cr proto.CommitResp
	err := e.cli.Call(proto.OpCommit, &proto.CommitReq{Owner: "c1", File: a.ID, Size: 4096, MTime: mt, Extents: lay.Extents}, &cr)
	if err != nil {
		t.Fatal(err)
	}
	if cr.Size != 4096 {
		t.Fatalf("committed size = %d", cr.Size)
	}
	var rlay proto.LayoutResp
	if err := e.cli.Call(proto.OpLayoutGet, &proto.LayoutGetReq{File: a.ID, Off: 0, Len: 4096}, &rlay); err != nil {
		t.Fatal(err)
	}
	if len(rlay.Extents) == 0 || rlay.Size != 4096 {
		t.Fatalf("post-commit read layout = %+v", rlay)
	}
}

func TestCommitCheckHookRejects(t *testing.T) {
	boom := errors.New("data not durable")
	e := newEnv(t, Config{CommitCheck: func([]meta.Extent) error { return boom }})
	a := e.create(t, meta.RootID, "f", meta.TypeFile)
	var lay proto.LayoutResp
	if err := e.cli.Call(proto.OpLayoutGet, &proto.LayoutGetReq{Owner: "c1", File: a.ID, Off: 0, Len: 4096, Flags: meta.LayoutWrite}, &lay); err != nil {
		t.Fatal(err)
	}
	err := e.cli.Call(proto.OpCommit, &proto.CommitReq{Owner: "c1", File: a.ID, Size: 4096, MTime: time.Now(), Extents: lay.Extents}, nil)
	if err == nil || !strings.Contains(err.Error(), "ordered-write violation") {
		t.Fatalf("err = %v", err)
	}
}

func TestDelegateAndReturnOverRPC(t *testing.T) {
	e := newEnv(t, Config{})
	var sp proto.SpanMsg
	if err := e.cli.Call(proto.OpDelegate, &proto.DelegateReq{Owner: "c1", Size: 16 << 20}, &sp); err != nil {
		t.Fatal(err)
	}
	if sp.Len != 16<<20 {
		t.Fatalf("span = %+v", sp)
	}
	if err := e.cli.Call(proto.OpDelegReturn, &proto.DelegReturnReq{Owner: "c1", Span: sp}, nil); err != nil {
		t.Fatal(err)
	}
	if e.srv.Store().Delegations("c1") != 0 {
		t.Fatal("delegation not returned")
	}
}

func TestStat(t *testing.T) {
	e := newEnv(t, Config{Daemons: 4})
	e.create(t, meta.RootID, "a", meta.TypeFile)
	var st proto.StatResp
	if err := e.cli.Call(proto.OpStat, nil, &st); err != nil {
		t.Fatal(err)
	}
	if st.Files != 1 {
		t.Fatalf("stat files = %d", st.Files)
	}
	if st.Processed < 1 {
		t.Fatalf("stat processed = %d", st.Processed)
	}
}

func TestCompoundCommitsThroughMDS(t *testing.T) {
	e := newEnv(t, Config{})
	// Three files, one compound commit frame.
	var ops []rpc.SubOp
	for _, name := range []string{"a", "b", "c"} {
		a := e.create(t, meta.RootID, name, meta.TypeFile)
		var lay proto.LayoutResp
		if err := e.cli.Call(proto.OpLayoutGet, &proto.LayoutGetReq{Owner: "c1", File: a.ID, Off: 0, Len: 4096, Flags: meta.LayoutWrite}, &lay); err != nil {
			t.Fatal(err)
		}
		req := proto.CommitReq{Owner: "c1", File: a.ID, Size: 4096, MTime: time.Now().UTC(), Extents: lay.Extents}
		ops = append(ops, rpc.SubOp{Op: proto.OpCommit, Body: wire.Encode(&req)})
	}
	before := e.srv.RPC().Processed()
	results, err := e.cli.Compound(ops)
	if err != nil {
		t.Fatal(err)
	}
	for i, res := range results {
		if res.Err != nil {
			t.Fatalf("sub-op %d failed: %v", i, res.Err)
		}
	}
	if got := e.srv.RPC().Processed() - before; got != 1 {
		t.Fatalf("compound consumed %d RPCs, want 1", got)
	}
	// All three files committed.
	for _, name := range []string{"a", "b", "c"} {
		var look proto.AttrResp
		if err := e.cli.Call(proto.OpLookup, &proto.LookupReq{Parent: meta.RootID, Name: name}, &look); err != nil {
			t.Fatal(err)
		}
		if look.Size != 4096 {
			t.Fatalf("%s size = %d", name, look.Size)
		}
	}
}

func TestLeaseExpiryReclaimsOrphans(t *testing.T) {
	mc := clock.NewManual()
	ags := alloc.NewUniformAGSet(alloc.RoundRobin, 0, 256<<20, 4)
	store := meta.NewStore(meta.Config{AGs: ags, Clock: mc})
	e := newEnv(t, Config{Store: store, Clock: mc, LeaseTimeout: time.Minute})
	var sp proto.SpanMsg
	if err := e.cli.Call(proto.OpDelegate, &proto.DelegateReq{Owner: "c1", Size: 1 << 20}, &sp); err != nil {
		t.Fatal(err)
	}
	if got := e.srv.ExpireLeases(); got != 0 {
		t.Fatalf("premature expiry reclaimed %d", got)
	}
	mc.Advance(2 * time.Minute)
	if got := e.srv.ExpireLeases(); got != 1<<20 {
		t.Fatalf("expiry reclaimed %d, want %d", got, 1<<20)
	}
	if store.Delegations("c1") != 0 {
		t.Fatal("expired delegation survived")
	}
}

func TestHelloNegotiatesProtocolVersion(t *testing.T) {
	e := newEnv(t, Config{})
	var h proto.HelloResp
	if err := e.cli.Call(proto.OpHello, &proto.HelloReq{Owner: "c1", ProtoVersion: proto.ProtoLatest}, &h); err != nil {
		t.Fatal(err)
	}
	if h.ProtoVersion != proto.ProtoLatest {
		t.Fatalf("negotiated v%d, want v%d", h.ProtoVersion, proto.ProtoLatest)
	}
	// An over-eager offer is clamped to what the server speaks.
	if err := e.cli.Call(proto.OpHello, &proto.HelloReq{Owner: "c1", ProtoVersion: 99}, &h); err != nil {
		t.Fatal(err)
	}
	if h.ProtoVersion != proto.ProtoLatest {
		t.Fatalf("offer 99 negotiated v%d, want clamp to v%d", h.ProtoVersion, proto.ProtoLatest)
	}
	// A v1 hello (no version field on the wire) pins the session to v1.
	if err := e.cli.Call(proto.OpHello, &proto.HelloReq{Owner: "old"}, &h); err != nil {
		t.Fatal(err)
	}
	if h.ProtoVersion != proto.ProtoV1 {
		t.Fatalf("version-less hello negotiated v%d, want v%d", h.ProtoVersion, proto.ProtoV1)
	}
}

// TestV1SessionNeverSeesUncommitted is the downgrade regression: whatever
// flag bits a pre-v2 client's frames happen to carry (a v1 `Write bool`
// re-encoded, a corrupted byte), the MDS must strip the uncommitted-
// visibility request for any session that did not negotiate v2 — including
// clients that never said hello at all.
func TestV1SessionNeverSeesUncommitted(t *testing.T) {
	e := newEnv(t, Config{})
	a := e.create(t, meta.RootID, "f", meta.TypeFile)
	// A writer publishes intents for 8 KiB it has not committed.
	var lay proto.LayoutResp
	if err := e.cli.Call(proto.OpLayoutGet, &proto.LayoutGetReq{Owner: "w", File: a.ID, Off: 0, Len: 8192, Flags: meta.LayoutWrite}, &lay); err != nil {
		t.Fatal(err)
	}
	for _, owner := range []string{"", "v1c"} {
		if owner != "" {
			// Session pinned to v1 by a version-less hello.
			if err := e.cli.Call(proto.OpHello, &proto.HelloReq{Owner: owner}, &proto.HelloResp{}); err != nil {
				t.Fatal(err)
			}
		}
		var rlay proto.LayoutResp
		req := &proto.LayoutGetReq{Owner: owner, File: a.ID, Off: 0, Len: 8192, Flags: meta.LayoutWantUncommitted}
		if err := e.cli.Call(proto.OpLayoutGet, req, &rlay); err != nil {
			t.Fatal(err)
		}
		for _, ext := range rlay.Extents {
			if ext.State == meta.StateUncommitted {
				t.Fatalf("owner %q (v1 session) saw uncommitted extent %+v", owner, ext)
			}
		}
		if rlay.Size != 0 {
			t.Fatalf("owner %q (v1 session) saw visible size %d, want committed size 0", owner, rlay.Size)
		}
	}
}

func TestV2SessionSeesUncommittedAndVisibleSize(t *testing.T) {
	e := newEnv(t, Config{})
	a := e.create(t, meta.RootID, "f", meta.TypeFile)
	if err := e.cli.Call(proto.OpHello, &proto.HelloReq{Owner: "r", ProtoVersion: proto.ProtoLatest}, &proto.HelloResp{}); err != nil {
		t.Fatal(err)
	}
	var lay proto.LayoutResp
	if err := e.cli.Call(proto.OpLayoutGet, &proto.LayoutGetReq{Owner: "w", File: a.ID, Off: 0, Len: 8192, Flags: meta.LayoutWrite}, &lay); err != nil {
		t.Fatal(err)
	}
	var rlay proto.LayoutResp
	req := &proto.LayoutGetReq{Owner: "r", File: a.ID, Off: 0, Len: 8192, Flags: meta.LayoutWantUncommitted}
	if err := e.cli.Call(proto.OpLayoutGet, req, &rlay); err != nil {
		t.Fatal(err)
	}
	var uncommitted int64
	for _, ext := range rlay.Extents {
		if ext.State == meta.StateUncommitted {
			uncommitted += ext.Len
		}
	}
	if uncommitted != 8192 {
		t.Fatalf("v2 session saw %d uncommitted bytes, want 8192", uncommitted)
	}
	if rlay.Size != 8192 {
		t.Fatalf("visible size = %d, want 8192 (committed size still 0)", rlay.Size)
	}
	// Without the flag the same session still gets the committed-only view.
	var plain proto.LayoutResp
	if err := e.cli.Call(proto.OpLayoutGet, &proto.LayoutGetReq{Owner: "r", File: a.ID, Off: 0, Len: 8192}, &plain); err != nil {
		t.Fatal(err)
	}
	if len(plain.Extents) != 0 || plain.Size != 0 {
		t.Fatalf("committed-only view leaked intents: %+v", plain)
	}
}

func TestLeaseExpiryRollsBackIntentsAndSession(t *testing.T) {
	mc := clock.NewManual()
	ags := alloc.NewUniformAGSet(alloc.RoundRobin, 0, 256<<20, 4)
	store := meta.NewStore(meta.Config{AGs: ags, Clock: mc})
	e := newEnv(t, Config{Store: store, Clock: mc, LeaseTimeout: time.Minute})
	a := e.create(t, meta.RootID, "f", meta.TypeFile)
	if err := e.cli.Call(proto.OpHello, &proto.HelloReq{Owner: "w", ProtoVersion: proto.ProtoLatest}, &proto.HelloResp{}); err != nil {
		t.Fatal(err)
	}
	var lay proto.LayoutResp
	if err := e.cli.Call(proto.OpLayoutGet, &proto.LayoutGetReq{Owner: "w", File: a.ID, Off: 0, Len: 4096, Flags: meta.LayoutWrite}, &lay); err != nil {
		t.Fatal(err)
	}
	mc.Advance(2 * time.Minute)
	if got := e.srv.ExpireLeases(); got == 0 {
		t.Fatal("expiry reclaimed nothing")
	}
	// The published intents are rolled back: a v2 reader sees no extents.
	if err := e.cli.Call(proto.OpHello, &proto.HelloReq{Owner: "r", ProtoVersion: proto.ProtoLatest}, &proto.HelloResp{}); err != nil {
		t.Fatal(err)
	}
	var rlay proto.LayoutResp
	req := &proto.LayoutGetReq{Owner: "r", File: a.ID, Off: 0, Len: 4096, Flags: meta.LayoutWantUncommitted}
	if err := e.cli.Call(proto.OpLayoutGet, req, &rlay); err != nil {
		t.Fatal(err)
	}
	if len(rlay.Extents) != 0 || rlay.Size != 0 {
		t.Fatalf("rolled-back intents still visible: %+v", rlay)
	}
	// The writer's session version was dropped with its lease: until it says
	// hello again it is treated as v1 and cannot request uncommitted extents.
	var wlay proto.LayoutResp
	wreq := &proto.LayoutGetReq{Owner: "w", File: a.ID, Off: 0, Len: 4096, Flags: meta.LayoutWantUncommitted}
	if err := e.cli.Call(proto.OpLayoutGet, wreq, &wlay); err != nil {
		t.Fatal(err)
	}
	if len(wlay.Extents) != 0 {
		t.Fatalf("expired session still negotiated: %+v", wlay.Extents)
	}
}

func TestUnknownOp(t *testing.T) {
	e := newEnv(t, Config{})
	if _, err := e.cli.CallRaw(9999, nil); err == nil {
		t.Fatal("unknown op succeeded")
	}
}

func TestNilStorePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("New with nil store did not panic")
		}
	}()
	New(Config{})
}

func TestMalformedBodyRejected(t *testing.T) {
	e := newEnv(t, Config{})
	if _, err := e.cli.CallRaw(proto.OpCreate, []byte{1, 2, 3}); err == nil {
		t.Fatal("malformed create accepted")
	}
}

// TestCommitDedupSurvivesReconnect pins the dedup window's keying: it is
// per (owner, commit ID) on the server, not per connection. A client whose
// link dies and is re-routed back to the same shard re-handshakes on a fresh
// connection; retransmitting the commit there must be answered from the
// window — applied once, not twice.
func TestCommitDedupSurvivesReconnect(t *testing.T) {
	e := newEnv(t, Config{})
	a := e.create(t, meta.RootID, "f", meta.TypeFile)
	var lay proto.LayoutResp
	if err := e.cli.Call(proto.OpLayoutGet, &proto.LayoutGetReq{Owner: "c1", File: a.ID, Off: 0, Len: 4096, Flags: meta.LayoutWrite}, &lay); err != nil {
		t.Fatal(err)
	}
	req := &proto.CommitReq{Owner: "c1", File: a.ID, Size: 4096, MTime: time.Unix(7, 0).UTC(), CommitID: 77, Extents: lay.Extents}
	var first proto.CommitResp
	if err := e.cli.Call(proto.OpCommit, req, &first); err != nil {
		t.Fatal(err)
	}
	e.cli.Close() // the link dies; the server keeps the session

	conn, err := e.net.Dial("c1", "mds")
	if err != nil {
		t.Fatal(err)
	}
	cli2 := rpc.NewClient(conn, clock.Real(1))
	defer cli2.Close()
	var h proto.HelloResp
	if err := cli2.Call(proto.OpHello, &proto.HelloReq{Owner: "c1", ProtoVersion: proto.ProtoLatest}, &h); err != nil {
		t.Fatal(err)
	}
	var retry proto.CommitResp
	if err := cli2.Call(proto.OpCommit, req, &retry); err != nil {
		t.Fatalf("retransmission after reconnect: %v", err)
	}
	if retry.Size != first.Size {
		t.Fatalf("deduped reply differs: %d vs %d", retry.Size, first.Size)
	}
	if hits := e.srv.DedupHits(); hits != 1 {
		t.Fatalf("dedup hits = %d, want 1: the window did not survive the reconnect", hits)
	}
}

// TestCommitDedupWindowIsPerShard documents the other half of the dedup
// invariant: each shard keeps its own window, and a commit retransmission
// only ever dedups on the inode's home shard. A mis-routed retransmission to
// a different shard is refused by its store — which does not own the inode —
// never silently absorbed.
func TestCommitDedupWindowIsPerShard(t *testing.T) {
	clk := clock.Real(1)
	stores := make([]*meta.Store, 2)
	for i := range stores {
		stores[i] = meta.NewStore(meta.Config{
			AGs:   alloc.NewUniformAGSet(alloc.RoundRobin, i, 64<<20, 4),
			Clock: clk, Shard: i, ShardCount: 2,
		})
	}
	// A file homed on shard 0 whose dirent lives with the root on shard 1,
	// built with the cross-shard create protocol.
	attr, err := settled(stores[0].BeginCreateDetached(time.Time{}, meta.RootID, "f", meta.TypeFile))
	if err != nil {
		t.Fatal(err)
	}
	if meta.ShardOf(attr.ID, 2) != 0 {
		t.Fatalf("minted inode %d not homed on shard 0", attr.ID)
	}
	if err := settle(stores[1].BeginLinkRemote(time.Time{}, meta.RootID, "f", attr.ID, meta.TypeFile)); err != nil {
		t.Fatal(err)
	}
	if err := settle(stores[0].BeginNSCommit(time.Time{}, attr.ID, meta.NSCreate)); err != nil {
		t.Fatal(err)
	}

	n := netsim.NewNetwork(clk)
	n.AddHost("c1", netsim.Instant())
	srvs := make([]*Server, 2)
	clis := make([]*rpc.Client, 2)
	for i := range srvs {
		host := "mds" + string(rune('0'+i))
		n.AddHost(host, netsim.Instant())
		srvs[i] = New(Config{Store: stores[i], Clock: clk, ShardIndex: uint32(i), ShardCount: 2})
		l, err := n.Listen(host)
		if err != nil {
			t.Fatal(err)
		}
		go srvs[i].Serve(l)
		conn, err := n.Dial("c1", host)
		if err != nil {
			t.Fatal(err)
		}
		clis[i] = rpc.NewClient(conn, clk)
		srv := srvs[i]
		t.Cleanup(func() { srv.Close() })
	}

	var lay proto.LayoutResp
	if err := clis[0].Call(proto.OpLayoutGet, &proto.LayoutGetReq{Owner: "c1", File: attr.ID, Off: 0, Len: 4096, Flags: meta.LayoutWrite}, &lay); err != nil {
		t.Fatal(err)
	}
	req := &proto.CommitReq{Owner: "c1", File: attr.ID, Size: 4096, MTime: time.Unix(7, 0).UTC(), CommitID: 99, Extents: lay.Extents}
	var resp proto.CommitResp
	if err := clis[0].Call(proto.OpCommit, req, &resp); err != nil {
		t.Fatal(err)
	}
	if err := clis[0].Call(proto.OpCommit, req, &resp); err != nil {
		t.Fatalf("home-shard retransmission: %v", err)
	}
	if hits := srvs[0].DedupHits(); hits != 1 {
		t.Fatalf("home shard dedup hits = %d, want 1", hits)
	}
	// The same retransmission aimed at the wrong shard must fail loudly:
	// shard 1 never recorded the commit and does not own the inode.
	var wrong proto.CommitResp
	err = clis[1].Call(proto.OpCommit, req, &wrong)
	var re *rpc.RemoteError
	if !errors.As(err, &re) {
		t.Fatalf("mis-routed retransmission: got err %v, want a remote refusal", err)
	}
	if hits := srvs[1].DedupHits(); hits != 0 {
		t.Fatalf("wrong shard answered from a dedup window it never populated (hits=%d)", hits)
	}
}
