package proto

import (
	"testing"
	"testing/quick"
	"time"

	"redbud/internal/meta"
	"redbud/internal/wire"
)

func roundTrip(t *testing.T, in wire.Marshaler, out wire.Unmarshaler) {
	t.Helper()
	if err := wire.Decode(wire.Encode(in), out); err != nil {
		t.Fatalf("%T round trip: %v", in, err)
	}
}

func TestPingRoundTrip(t *testing.T) {
	roundTrip(t, &PingReq{}, &PingReq{})
}

func TestLookupRoundTrip(t *testing.T) {
	in := &LookupReq{Parent: 7, Name: "dir entry"}
	var out LookupReq
	roundTrip(t, in, &out)
	if out != *in {
		t.Fatalf("got %+v", out)
	}
}

func TestAttrRoundTripAndConversion(t *testing.T) {
	a := meta.Attr{ID: 9, Type: meta.TypeDir, Size: 123, MTime: time.Unix(5, 6).UTC()}
	msg := FromAttr(a)
	var out AttrResp
	roundTrip(t, &msg, &out)
	back := out.Attr()
	if back.ID != a.ID || back.Type != a.Type || back.Size != a.Size || !back.MTime.Equal(a.MTime) {
		t.Fatalf("got %+v, want %+v", back, a)
	}
}

func TestCreateRoundTrip(t *testing.T) {
	in := &CreateReq{Parent: 1, Name: "f", Type: meta.TypeFile}
	var out CreateReq
	roundTrip(t, in, &out)
	if out != *in {
		t.Fatalf("got %+v", out)
	}
}

func TestReadDirRoundTrip(t *testing.T) {
	in := &ReadDirResp{Entries: []meta.DirEnt{
		{Name: "a", ID: 2, Type: meta.TypeFile, Size: 42},
		{Name: "b", ID: 3, Type: meta.TypeDir},
	}}
	var out ReadDirResp
	roundTrip(t, in, &out)
	if len(out.Entries) != 2 || out.Entries[0] != in.Entries[0] || out.Entries[1] != in.Entries[1] {
		t.Fatalf("got %+v", out.Entries)
	}
	// Empty list.
	var empty ReadDirResp
	roundTrip(t, &ReadDirResp{}, &empty)
	if len(empty.Entries) != 0 {
		t.Fatalf("empty round trip: %+v", empty.Entries)
	}
}

func TestLayoutRoundTrip(t *testing.T) {
	in := &LayoutResp{File: 4, Size: 9999, Extents: []meta.Extent{
		{FileOff: 0, Len: 4096, Dev: 1, VolOff: 1 << 20, State: meta.StateCommitted},
		{FileOff: 4096, Len: 512, Dev: 2, VolOff: 7, State: meta.StateUncommitted},
	}}
	var out LayoutResp
	roundTrip(t, in, &out)
	if out.File != 4 || out.Size != 9999 || len(out.Extents) != 2 || out.Extents[1] != in.Extents[1] {
		t.Fatalf("got %+v", out)
	}
}

func TestLayoutGetReqRoundTrip(t *testing.T) {
	for _, flags := range []meta.LayoutFlags{0, meta.LayoutWrite, 0x02, 0xFF} {
		in := &LayoutGetReq{Owner: "c9", File: 11, Off: 100, Len: 200, Flags: flags}
		var out LayoutGetReq
		roundTrip(t, in, &out)
		if out != *in {
			t.Fatalf("got %+v", out)
		}
	}
}

// TestLayoutGetReqV1WireCompat proves the Flags byte occupies exactly the
// position the v1 `Write bool` used: a frame hand-encoded the v1 way decodes
// into the v2 struct with only the write bit set, and a v2 frame using only
// the write bit is byte-identical to the v1 encoding.
func TestLayoutGetReqV1WireCompat(t *testing.T) {
	var b wire.Buffer
	b.PutString("c9")
	b.PutU64(11)
	b.PutI64(100)
	b.PutI64(200)
	b.PutBool(true) // v1 Write field
	v1 := append([]byte(nil), b.Bytes()...)

	var out LayoutGetReq
	if err := wire.Decode(v1, &out); err != nil {
		t.Fatalf("decode v1 frame: %v", err)
	}
	if out.Flags != meta.LayoutWrite {
		t.Fatalf("v1 Write bool decoded as flags %v, want %v", out.Flags, meta.LayoutWrite)
	}
	v2 := wire.Encode(&LayoutGetReq{Owner: "c9", File: 11, Off: 100, Len: 200, Flags: meta.LayoutWrite})
	if string(v2) != string(v1) {
		t.Fatalf("v2 write-only frame differs from v1 encoding:\n v1 % x\n v2 % x", v1, v2)
	}
}

func TestHelloRoundTrip(t *testing.T) {
	in := &HelloReq{Owner: "c3", ProtoVersion: ProtoV5}
	var out HelloReq
	roundTrip(t, in, &out)
	if out != *in {
		t.Fatalf("got %+v", out)
	}
	rin := &HelloResp{Incarnation: 9, ProtoVersion: ProtoV5, ShardIndex: 2, ShardCount: 4}
	var rout HelloResp
	roundTrip(t, rin, &rout)
	if rout != *rin {
		t.Fatalf("got %+v", rout)
	}
}

// TestShortHelloIsAnError: the version and the shard coordinates are not
// optional. A hello or a hello reply cut anywhere before its end fails to
// decode instead of reading as some older protocol.
func TestShortHelloIsAnError(t *testing.T) {
	for _, c := range []struct {
		name string
		in   wire.Marshaler
		out  wire.Unmarshaler
	}{
		{"request", &HelloReq{Owner: "c3", ProtoVersion: ProtoV5}, &HelloReq{}},
		{"reply", &HelloResp{Incarnation: 9, ProtoVersion: ProtoV5, ShardIndex: 2, ShardCount: 4}, &HelloResp{}},
	} {
		frame := wire.Encode(c.in)
		for cut := 0; cut < len(frame); cut++ {
			if err := wire.Decode(frame[:cut], c.out); err == nil {
				t.Fatalf("%s cut to %d of %d bytes decoded without error", c.name, cut, len(frame))
			}
		}
	}
}

func TestCommitRoundTrip(t *testing.T) {
	in := &CommitReq{Owner: "c1", File: 5, Size: 777, MTime: time.Unix(9, 0).UTC(),
		Extents: []meta.Extent{{FileOff: 0, Len: 777, Dev: 0, VolOff: 4096}}}
	var out CommitReq
	roundTrip(t, in, &out)
	if out.Owner != in.Owner || out.File != in.File || out.Size != in.Size ||
		!out.MTime.Equal(in.MTime) || len(out.Extents) != 1 || out.Extents[0] != in.Extents[0] {
		t.Fatalf("got %+v", out)
	}
	var cr CommitResp
	roundTrip(t, &CommitResp{Size: 31}, &cr)
	if cr.Size != 31 {
		t.Fatalf("resp = %+v", cr)
	}
}

func TestDelegationRoundTrips(t *testing.T) {
	var dr DelegateReq
	roundTrip(t, &DelegateReq{Owner: "x", Size: 16 << 20}, &dr)
	if dr.Owner != "x" || dr.Size != 16<<20 {
		t.Fatalf("got %+v", dr)
	}
	var sp SpanMsg
	roundTrip(t, &SpanMsg{Dev: 3, Off: 9, Len: 10}, &sp)
	if sp != (SpanMsg{Dev: 3, Off: 9, Len: 10}) {
		t.Fatalf("got %+v", sp)
	}
	var ret DelegReturnReq
	roundTrip(t, &DelegReturnReq{Owner: "y", Span: SpanMsg{Dev: 1, Off: 2, Len: 3}}, &ret)
	if ret.Owner != "y" || ret.Span != (SpanMsg{Dev: 1, Off: 2, Len: 3}) {
		t.Fatalf("got %+v", ret)
	}
}

// Property tests: random messages survive the codec, and random bytes never
// panic the decoders.
func TestQuickCommitReq(t *testing.T) {
	f := func(owner string, file uint64, size int64, fo, l, vo int64, dev uint32, committed bool) bool {
		st := meta.StateUncommitted
		if committed {
			st = meta.StateCommitted
		}
		in := &CommitReq{Owner: owner, File: meta.FileID(file), Size: size, MTime: time.Unix(0, 0).UTC(),
			Extents: []meta.Extent{{FileOff: fo, Len: l, Dev: dev, VolOff: vo, State: st}}}
		var out CommitReq
		if err := wire.Decode(wire.Encode(in), &out); err != nil {
			return false
		}
		return out.Owner == owner && out.File == meta.FileID(file) && out.Size == size &&
			len(out.Extents) == 1 && out.Extents[0] == in.Extents[0]
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestQuickDecodersNeverPanic(t *testing.T) {
	targets := []func() wire.Unmarshaler{
		func() wire.Unmarshaler { return &LookupReq{} },
		func() wire.Unmarshaler { return &AttrResp{} },
		func() wire.Unmarshaler { return &CreateReq{} },
		func() wire.Unmarshaler { return &ReadDirResp{} },
		func() wire.Unmarshaler { return &LayoutGetReq{} },
		func() wire.Unmarshaler { return &LayoutResp{} },
		func() wire.Unmarshaler { return &CommitReq{} },
		func() wire.Unmarshaler { return &DelegateReq{} },
		func() wire.Unmarshaler { return &DelegReturnReq{} },
		func() wire.Unmarshaler { return &HelloReq{} },
		func() wire.Unmarshaler { return &HelloResp{} },
		func() wire.Unmarshaler { return &GetAttrReq{} },
		func() wire.Unmarshaler { return &RemoveReq{} },
		func() wire.Unmarshaler { return &RenameReq{} },
		func() wire.Unmarshaler { return &NSPrepareReq{} },
		func() wire.Unmarshaler { return &DelegCtx{} },
	}
	f := func(raw []byte, pick uint8) bool {
		_ = wire.Decode(raw, targets[int(pick)%len(targets)]())
		return true // no panic is the property
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Fatal(err)
	}
}

// TestTraceCtxTrailingOptional pins the v4 trace-context contract on every
// traced request: a zero Trace encodes byte-identically to the pre-v4 frame
// (old peers never see the field), a non-zero Trace appends exactly the
// 16-byte (trace ID, span ID) pair after the v3 fields, and both shapes
// decode back losslessly.
func TestTraceCtxTrailingOptional(t *testing.T) {
	tc := TraceCtx{TraceID: 0xdeadbeef, SpanID: 0xcafe}
	check := func(name string, traced, untraced wire.Marshaler, decode func([]byte) (TraceCtx, error)) {
		t.Helper()
		tb, ub := wire.Encode(traced), wire.Encode(untraced)
		if len(tb) != len(ub)+16 {
			t.Fatalf("%s: traced frame is %d bytes, untraced %d; want exactly +16", name, len(tb), len(ub))
		}
		if string(tb[:len(ub)]) != string(ub) {
			t.Fatalf("%s: trace context not trailing — the v3 prefix changed", name)
		}
		if got, err := decode(tb); err != nil || got != tc {
			t.Fatalf("%s: traced decode = %+v, %v", name, got, err)
		}
		if got, err := decode(ub); err != nil || got != (TraceCtx{}) {
			t.Fatalf("%s: v3-shaped decode = %+v, %v; want untraced", name, got, err)
		}
	}

	check("commit",
		&CommitReq{Owner: "c", File: 5, Size: 9, MTime: time.Unix(1, 0).UTC(), CommitID: 3,
			Extents: []meta.Extent{{Len: 9, VolOff: 4096}}, Trace: tc},
		&CommitReq{Owner: "c", File: 5, Size: 9, MTime: time.Unix(1, 0).UTC(), CommitID: 3,
			Extents: []meta.Extent{{Len: 9, VolOff: 4096}}},
		func(p []byte) (TraceCtx, error) { var m CommitReq; err := wire.Decode(p, &m); return m.Trace, err })
	check("create-detached",
		&CreateDetachedReq{Parent: 1, Name: "f", Trace: tc},
		&CreateDetachedReq{Parent: 1, Name: "f"},
		func(p []byte) (TraceCtx, error) {
			var m CreateDetachedReq
			err := wire.Decode(p, &m)
			return m.Trace, err
		})
	check("ns-prepare",
		&NSPrepareReq{File: 2, Kind: meta.NSRenameSrc, Parent: 1, Name: "a", DstParent: 3, DstName: "b", Trace: tc},
		&NSPrepareReq{File: 2, Kind: meta.NSRenameSrc, Parent: 1, Name: "a", DstParent: 3, DstName: "b"},
		func(p []byte) (TraceCtx, error) { var m NSPrepareReq; err := wire.Decode(p, &m); return m.Trace, err })
	check("ns-commit",
		&NSCommitReq{File: 2, Kind: meta.NSRemove, Trace: tc},
		&NSCommitReq{File: 2, Kind: meta.NSRemove},
		func(p []byte) (TraceCtx, error) { var m NSCommitReq; err := wire.Decode(p, &m); return m.Trace, err })
	check("ns-abort",
		&NSAbortReq{File: 2, Kind: meta.NSCreate, Trace: tc},
		&NSAbortReq{File: 2, Kind: meta.NSCreate},
		func(p []byte) (TraceCtx, error) { var m NSAbortReq; err := wire.Decode(p, &m); return m.Trace, err })
	check("link-remote",
		&LinkRemoteReq{Parent: 1, Name: "f", Child: 7, Trace: tc},
		&LinkRemoteReq{Parent: 1, Name: "f", Child: 7},
		func(p []byte) (TraceCtx, error) { var m LinkRemoteReq; err := wire.Decode(p, &m); return m.Trace, err })
	check("unlink-remote",
		&UnlinkRemoteReq{Parent: 1, Name: "f", Child: 7, Trace: tc},
		&UnlinkRemoteReq{Parent: 1, Name: "f", Child: 7},
		func(p []byte) (TraceCtx, error) {
			var m UnlinkRemoteReq
			err := wire.Decode(p, &m)
			return m.Trace, err
		})
}

// TestDelegCtxTrailingOptional pins the v5 delegation contract at every new
// optional boundary, the way TestTraceCtxTrailingOptional does for v4: a
// request without an owner encodes byte-identically to the v4 frame (a v4 peer
// never sees the field), an owner appends exactly its group after the v4
// fields, both shapes decode back losslessly, and a frame cut anywhere inside
// the group is an error rather than a half-read owner.
func TestDelegCtxTrailingOptional(t *testing.T) {
	dc := DelegCtx{Owner: "client-7", Ack: 41}
	group := len(wire.Encode(&dc))
	check := func(name string, owned, anon wire.Marshaler, decode func([]byte) (DelegCtx, error)) {
		t.Helper()
		ob, ab := wire.Encode(owned), wire.Encode(anon)
		if len(ob) != len(ab)+group {
			t.Fatalf("%s: owned frame is %d bytes, anonymous %d; want exactly +%d", name, len(ob), len(ab), group)
		}
		if string(ob[:len(ab)]) != string(ab) {
			t.Fatalf("%s: delegation context not trailing — the v4 prefix changed", name)
		}
		if got, err := decode(ob); err != nil || got != dc {
			t.Fatalf("%s: owned decode = %+v, %v", name, got, err)
		}
		if got, err := decode(ab); err != nil || got != (DelegCtx{}) {
			t.Fatalf("%s: v4-shaped decode = %+v, %v; want anonymous", name, got, err)
		}
		for cut := len(ab) + 1; cut < len(ob); cut++ {
			if _, err := decode(ob[:cut]); err == nil {
				t.Fatalf("%s: frame cut at %d of %d decoded without error", name, cut, len(ob))
			}
		}
	}

	check("lookup", &LookupReq{Parent: 1, Name: "f", Deleg: dc}, &LookupReq{Parent: 1, Name: "f"},
		func(p []byte) (DelegCtx, error) { var m LookupReq; err := wire.Decode(p, &m); return m.Deleg, err })
	check("create", &CreateReq{Parent: 1, Name: "f", Type: meta.TypeFile, Deleg: dc}, &CreateReq{Parent: 1, Name: "f", Type: meta.TypeFile},
		func(p []byte) (DelegCtx, error) { var m CreateReq; err := wire.Decode(p, &m); return m.Deleg, err })
	check("getattr", &GetAttrReq{ID: 9, Deleg: dc}, &GetAttrReq{ID: 9},
		func(p []byte) (DelegCtx, error) { var m GetAttrReq; err := wire.Decode(p, &m); return m.Deleg, err })
	check("remove", &RemoveReq{Parent: 1, Name: "f", Deleg: dc}, &RemoveReq{Parent: 1, Name: "f"},
		func(p []byte) (DelegCtx, error) { var m RemoveReq; err := wire.Decode(p, &m); return m.Deleg, err })
	check("rename", &RenameReq{SrcParent: 1, SrcName: "a", DstParent: 2, DstName: "b", Deleg: dc},
		&RenameReq{SrcParent: 1, SrcName: "a", DstParent: 2, DstName: "b"},
		func(p []byte) (DelegCtx, error) { var m RenameReq; err := wire.Decode(p, &m); return m.Deleg, err })
	// NSPrepareReq nests the owner inside the v4 trace group: with a trace the
	// owner follows it; without one a zero trace context (16 bytes, reads as
	// untraced) keeps the frame a strict prefix chain.
	tc := TraceCtx{TraceID: 7, SpanID: 8}
	prep := NSPrepareReq{File: 2, Kind: meta.NSRemove, Parent: 1, Name: "a"}
	traced, tracedOwned := prep, prep
	traced.Trace, tracedOwned.Trace, tracedOwned.Deleg = tc, tc, dc
	check("ns-prepare (traced)", &tracedOwned, &traced,
		func(p []byte) (DelegCtx, error) { var m NSPrepareReq; err := wire.Decode(p, &m); return m.Deleg, err })
	owned := prep
	owned.Deleg = dc
	ob, ab := wire.Encode(&owned), wire.Encode(&prep)
	if len(ob) != len(ab)+16+group {
		t.Fatalf("ns-prepare: untraced owned frame is %d bytes over the v3 frame, want %d", len(ob)-len(ab), 16+group)
	}
	var m NSPrepareReq
	if err := wire.Decode(ob, &m); err != nil || m.Deleg != dc || m.Trace != (TraceCtx{}) {
		t.Fatalf("ns-prepare: untraced owned decode = %+v, %v", m, err)
	}
}

// TestAttrRespDelegationGroup pins the reply side: a reply that grants
// nothing and recalls nothing is the v4 frame; anything else appends one
// group a v4-shaped decode never sees, and a cut inside it is an error.
func TestAttrRespDelegationGroup(t *testing.T) {
	base := AttrResp{ID: 5, Type: meta.TypeFile, Size: 4096, MTime: time.Unix(3, 0).UTC()}
	v4 := wire.Encode(&base)
	same := func(a, b AttrResp) bool {
		if a.ID != b.ID || a.Type != b.Type || a.Size != b.Size || !a.MTime.Equal(b.MTime) ||
			a.Granted != b.Granted || a.RecallSeq != b.RecallSeq || len(a.Recalls) != len(b.Recalls) {
			return false
		}
		for i := range a.Recalls {
			if a.Recalls[i] != b.Recalls[i] {
				return false
			}
		}
		return true
	}
	for _, in := range []AttrResp{
		{Granted: true},
		{RecallSeq: 9},
		{Granted: true, RecallSeq: 12, Recalls: []meta.FileID{7, RecallAll, 1 << 40}},
	} {
		in.ID, in.Type, in.Size, in.MTime = base.ID, base.Type, base.Size, base.MTime
		frame := wire.Encode(&in)
		if string(frame[:len(v4)]) != string(v4) {
			t.Fatalf("%+v: delegation group not trailing", in)
		}
		if want := len(v4) + 1 + 8 + 4 + 8*len(in.Recalls); len(frame) != want {
			t.Fatalf("%+v: frame is %d bytes, want %d", in, len(frame), want)
		}
		var out AttrResp
		if err := wire.Decode(frame, &out); err != nil || !same(in, out) {
			t.Fatalf("round trip: sent %+v, got %+v, %v", in, out, err)
		}
		for cut := len(v4) + 1; cut < len(frame); cut++ {
			if err := wire.Decode(frame[:cut], &out); err == nil {
				t.Fatalf("%+v: frame cut at %d of %d decoded without error", in, cut, len(frame))
			}
		}
	}
	var out AttrResp
	out.Granted, out.RecallSeq, out.Recalls = true, 3, []meta.FileID{1}
	if err := wire.Decode(v4, &out); err != nil || !same(base, out) {
		t.Fatalf("v4-shaped reply decoded as %+v, %v; want no grant and no recall", out, err)
	}
}
