package rpc

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"redbud/internal/clock"
	"redbud/internal/fsapi"
	"redbud/internal/netsim"
	"redbud/internal/obs"
	"redbud/internal/wire"
)

const (
	opEcho uint16 = iota + 1
	opAdd
	opFail
	opSlow
	opGone
)

// testHandler: opEcho echoes, opAdd sums two u32s, opFail errors, opSlow
// sleeps (for queue-pressure tests; uses the real clock, short), and opGone
// refuses with fsapi.ErrNotExist under a message that names another failure.
func testHandler(op uint16, body []byte) ([]byte, error) {
	switch op {
	case opEcho:
		out := make([]byte, len(body))
		copy(out, body)
		return out, nil
	case opAdd:
		r := wire.NewReader(body)
		a, b := r.U32(), r.U32()
		if err := r.Err(); err != nil {
			return nil, err
		}
		var out wire.Buffer
		out.PutU32(a + b)
		return out.Bytes(), nil
	case opFail:
		return nil, errors.New("deliberate failure")
	case opSlow:
		time.Sleep(20 * time.Millisecond)
		return nil, nil
	case opGone:
		return nil, fmt.Errorf("%w: %q", fsapi.ErrNotExist, "already exists")
	}
	return nil, fmt.Errorf("unknown op %d", op)
}

// newPair builds a connected client/server over an instant simulated net.
func newPair(t *testing.T, cfg ServerConfig) (*Client, *Server) {
	t.Helper()
	if cfg.Handler == nil {
		cfg.Handler = testHandler
	}
	n := netsim.NewNetwork(clock.Real(1))
	n.AddHost("client", netsim.Instant())
	n.AddHost("mds", netsim.Instant())
	l, err := n.Listen("mds")
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(cfg)
	go srv.Serve(l)
	conn, err := n.Dial("client", "mds")
	if err != nil {
		t.Fatal(err)
	}
	cli := NewClient(conn, clock.Real(1))
	t.Cleanup(func() {
		cli.Close()
		srv.Close()
		l.Close()
	})
	return cli, srv
}

// counter reads one of srv's counters from a metrics registry.
func counter(srv *Server, name string) int64 {
	reg := obs.NewRegistry()
	srv.RegisterMetrics(reg, nil)
	m, _ := reg.Snapshot().Get(name)
	return m.Value
}

func TestCallRawEcho(t *testing.T) {
	cli, _ := newPair(t, ServerConfig{})
	got, err := cli.CallRaw(opEcho, []byte("hello"))
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "hello" {
		t.Fatalf("got %q", got)
	}
	if cli.Calls() != 1 {
		t.Fatalf("calls = %d", cli.Calls())
	}
}

type addReq struct{ A, B uint32 }

func (m *addReq) MarshalWire(b *wire.Buffer) { b.PutU32(m.A); b.PutU32(m.B) }

type addResp struct{ Sum uint32 }

func (m *addResp) UnmarshalWire(r *wire.Reader) error { m.Sum = r.U32(); return nil }

func TestTypedCall(t *testing.T) {
	cli, _ := newPair(t, ServerConfig{})
	var resp addResp
	if err := cli.Call(opAdd, &addReq{A: 2, B: 40}, &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Sum != 42 {
		t.Fatalf("sum = %d", resp.Sum)
	}
}

func TestCallNilBodies(t *testing.T) {
	cli, _ := newPair(t, ServerConfig{})
	if err := cli.Call(opEcho, nil, nil); err != nil {
		t.Fatal(err)
	}
}

// TestRemoteError: a refusal names its operation, an uncoded one unwraps to
// nothing, and a coded one unwraps to its fsapi sentinel whatever its message
// says, alone and inside a compound.
func TestRemoteError(t *testing.T) {
	cli, _ := newPair(t, ServerConfig{})
	_, err := cli.CallRaw(opFail, nil)
	var re *RemoteError
	if !errors.As(err, &re) {
		t.Fatalf("err = %v, want RemoteError", err)
	}
	if re.Message != "deliberate failure" || re.Op != opFail || re.Err != nil {
		t.Fatalf("refusal = %+v, want op %d, no sentinel", re, opFail)
	}
	_, err = cli.CallRaw(opGone, nil)
	if !errors.As(err, &re) || re.Op != opGone || !errors.Is(err, fsapi.ErrNotExist) || errors.Is(err, fsapi.ErrExist) {
		t.Fatalf("err = %v, want op %d refused with fsapi.ErrNotExist only", err, opGone)
	}
	results, err := cli.Compound([]SubOp{{Op: opFail}, {Op: opGone}})
	if err != nil {
		t.Fatal(err)
	}
	if errors.Is(results[0].Err, fsapi.ErrNotExist) || !errors.Is(results[1].Err, fsapi.ErrNotExist) {
		t.Fatalf("compound refusals = %v, %v", results[0].Err, results[1].Err)
	}
	// The connection survives a remote error.
	if _, err := cli.CallRaw(opEcho, []byte("still alive")); err != nil {
		t.Fatal(err)
	}
}

func TestConcurrentCalls(t *testing.T) {
	cli, _ := newPair(t, ServerConfig{Daemons: 8})
	var wg sync.WaitGroup
	for i := 0; i < 64; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var resp addResp
			a, b := uint32(i), uint32(i*3)
			if err := cli.Call(opAdd, &addReq{A: a, B: b}, &resp); err != nil {
				t.Error(err)
				return
			}
			if resp.Sum != a+b {
				t.Errorf("sum(%d,%d) = %d", a, b, resp.Sum)
			}
		}()
	}
	wg.Wait()
}

func TestCompound(t *testing.T) {
	cli, srv := newPair(t, ServerConfig{})
	enc := func(a, b uint32) []byte { return wire.Encode(&addReq{A: a, B: b}) }
	results, err := cli.Compound([]SubOp{
		{Op: opAdd, Body: enc(1, 2)},
		{Op: opFail},
		{Op: opAdd, Body: enc(10, 20)},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 3 {
		t.Fatalf("results = %d", len(results))
	}
	var r0 addResp
	if err := wire.Decode(results[0].Body, &r0); err != nil || r0.Sum != 3 {
		t.Fatalf("sub0: %v sum=%d", err, r0.Sum)
	}
	var re *RemoteError
	if !errors.As(results[1].Err, &re) || re.Op != opFail {
		t.Fatalf("sub1 err = %v", results[1].Err)
	}
	var r2 addResp
	if err := wire.Decode(results[2].Body, &r2); err != nil || r2.Sum != 30 {
		t.Fatalf("sub2: %v sum=%d", err, r2.Sum)
	}
	// One RPC processed, three sub-ops executed.
	processed, subOps := counter(srv, "redbud_rpc_processed_total"), counter(srv, "redbud_rpc_subops_total")
	if processed != 1 || subOps != 3 {
		t.Fatalf("processed=%d subops=%d", processed, subOps)
	}
}

func TestCompoundEmpty(t *testing.T) {
	cli, _ := newPair(t, ServerConfig{})
	res, err := cli.Compound(nil)
	if err != nil || res != nil {
		t.Fatalf("empty compound: %v %v", res, err)
	}
}

func TestCompoundRoundTripEncoding(t *testing.T) {
	ops := []SubOp{{Op: 7, Body: []byte("abc")}, {Op: 9, Body: nil}}
	var b wire.Buffer
	appendCompound(&b, ops)
	dec, err := decodeCompound(b.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if len(dec) != 2 || dec[0].Op != 7 || string(dec[0].Body) != "abc" || dec[1].Op != 9 {
		t.Fatalf("decoded %+v", dec)
	}
	if _, err := decodeCompound([]byte{9}); err == nil {
		t.Fatal("truncated compound accepted")
	}
	// Reply with mismatched count must be rejected.
	rep := encodeCompoundReply([]SubResult{{Body: []byte("x")}})
	if _, err := decodeCompoundReply(rep, ops); err == nil {
		t.Fatal("mismatched compound reply accepted")
	}
}

func TestServerLoadPiggyback(t *testing.T) {
	cli, _ := newPair(t, ServerConfig{Daemons: 1})
	if _, err := cli.CallRaw(opEcho, nil); err != nil {
		t.Fatal(err)
	}
	// After a single sequential call the server is idle.
	if load := cli.ServerLoad(); load > 64 {
		t.Fatalf("idle server load = %d", load)
	}
}

func TestServerLoadUnderPressure(t *testing.T) {
	srv := NewServer(ServerConfig{Handler: testHandler, Daemons: 1, QueueCap: 256})
	defer srv.Close()
	// Saturate the single daemon directly through the queue bookkeeping:
	// load reflects inflight + queued work.
	if srv.Load() != 0 {
		t.Fatalf("idle load = %d", srv.Load())
	}
	cliSide, srvSide := localPair(t)
	go srv.ServeConn(srvSide)
	cli := NewClient(cliSide, clock.Real(1))
	defer cli.Close()
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			cli.CallRaw(opSlow, nil)
		}()
	}
	// Wait until at least some calls are queued, then check the load.
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if srv.Load() > 100 {
			break
		}
		time.Sleep(time.Millisecond)
	}
	if srv.Load() <= 100 {
		t.Fatalf("saturated server load = %d", srv.Load())
	}
	wg.Wait()
}

// localPair returns two connected Conn halves over an instant network.
func localPair(t *testing.T) (netsim.Conn, netsim.Conn) {
	t.Helper()
	_, a, b := linkPair(t, clock.Real(1), netsim.Instant())
	return a, b
}

func TestClientCloseFailsPending(t *testing.T) {
	cli, _ := newPair(t, ServerConfig{Daemons: 1})
	done := make(chan error, 1)
	go func() {
		_, err := cli.CallRaw(opSlow, nil)
		done <- err
	}()
	time.Sleep(5 * time.Millisecond)
	cli.Close()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("pending call survived close")
		}
	case <-time.After(2 * time.Second):
		t.Fatal("pending call not failed on close")
	}
	if _, err := cli.CallRaw(opEcho, nil); !errors.Is(err, ErrClientClosed) {
		t.Fatalf("call after close err = %v", err)
	}
}

func TestOpCostChargesTime(t *testing.T) {
	mc := clock.NewManual()
	srv := NewServer(ServerConfig{Handler: testHandler, Daemons: 1, OpCost: 10 * time.Millisecond, Clock: mc})
	defer srv.Close()
	defer mc.Advance(time.Hour)
	cliSide, srvSide := localPair(t)
	go srv.ServeConn(srvSide)
	cli := NewClient(cliSide, clock.Real(1))
	defer cli.Close()

	done := make(chan error, 1)
	go func() {
		_, err := cli.CallRaw(opEcho, nil)
		done <- err
	}()
	// The daemon must be sleeping on the manual clock.
	for mc.Waiters() == 0 {
		time.Sleep(time.Millisecond)
	}
	select {
	case <-done:
		t.Fatal("call completed before op cost elapsed")
	case <-time.After(10 * time.Millisecond):
	}
	mc.Advance(10 * time.Millisecond)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
}

func TestContentionInflatesOpCost(t *testing.T) {
	base := ServerConfig{Handler: testHandler, OpCost: time.Millisecond, ContentionPerDaemon: 0.1}
	s1 := NewServer(withDaemons(base, 1))
	s16 := NewServer(withDaemons(base, 16))
	defer s1.Close()
	defer s16.Close()
	if c1, c16 := s1.opCost(), s16.opCost(); c16 <= c1 {
		t.Fatalf("contention not applied: 1 daemon %v, 16 daemons %v", c1, c16)
	}
}

func withDaemons(c ServerConfig, n int) ServerConfig { c.Daemons = n; return c }

func TestNilHandlerPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewServer with nil handler did not panic")
		}
	}()
	NewServer(ServerConfig{})
}

func TestUnknownOpReturnsError(t *testing.T) {
	cli, _ := newPair(t, ServerConfig{})
	if _, err := cli.CallRaw(999, nil); err == nil {
		t.Fatal("unknown op succeeded")
	}
}

// TestClientMalformedResponseFailsCall exercises the readLoop's handling of
// damaged response frames. The seed silently dropped them, leaving the
// matching caller hung until the connection died; now the call fails with
// ErrBadFrame and the frame is counted.
func TestClientMalformedResponseFailsCall(t *testing.T) {
	cliConn, srvConn := localPair(t)
	cli := NewClient(cliConn, clock.Real(1))
	defer cli.Close()

	// Fake server: read the request, echo back a frame truncated after the
	// message ID — too short for a response header.
	go func() {
		frame, err := srvConn.Recv()
		if err != nil {
			return
		}
		var short wire.Buffer
		short.PutU64(wire.NewReader(frame).U64()) // msgID only, no kind/status
		_ = srvConn.Send(short.Bytes())
	}()

	if _, err := cli.CallRaw(opEcho, []byte("x")); !errors.Is(err, ErrBadFrame) {
		t.Fatalf("call on truncated response: err = %v, want ErrBadFrame", err)
	}
	if n := cli.BadFrames(); n != 1 {
		t.Fatalf("BadFrames = %d, want 1", n)
	}
}

// TestClientTruncatedPayloadFailsCall covers a frame whose header parses but
// whose length-prefixed payload overruns the frame.
func TestClientTruncatedPayloadFailsCall(t *testing.T) {
	cliConn, srvConn := localPair(t)
	cli := NewClient(cliConn, clock.Real(1))
	defer cli.Close()

	go func() {
		frame, err := srvConn.Recv()
		if err != nil {
			return
		}
		var b wire.Buffer
		b.PutU64(wire.NewReader(frame).U64())
		b.PutU8(kindResponse)
		b.PutU16(0)       // status OK
		b.PutU8(0)        // load
		b.PutU32(1 << 20) // payload length with no payload bytes
		_ = srvConn.Send(b.Bytes())
	}()

	if _, err := cli.CallRaw(opEcho, nil); !errors.Is(err, ErrBadFrame) {
		t.Fatalf("call on truncated payload: err = %v, want ErrBadFrame", err)
	}
	if n := cli.BadFrames(); n != 1 {
		t.Fatalf("BadFrames = %d, want 1", n)
	}
}
