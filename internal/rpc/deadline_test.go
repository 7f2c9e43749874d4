package rpc

import (
	"sync"
	"testing"
	"time"

	"redbud/internal/clock"
	"redbud/internal/netsim"
	"redbud/internal/obs"
	"redbud/internal/wire"
)

const (
	testFrameCost = time.Millisecond
	testOpCost    = 2 * time.Millisecond
)

// orderedHandler records the order of the operations it applies and
// signals each on applied.
type orderedHandler struct {
	mu      sync.Mutex
	ops     []uint16
	applied chan uint16
}

func newOrderedHandler() *orderedHandler { return &orderedHandler{applied: make(chan uint16, 16)} }

func (h *orderedHandler) handle(op uint16, body []byte) ([]byte, error) {
	h.mu.Lock()
	h.ops = append(h.ops, op)
	h.mu.Unlock()
	h.applied <- op
	return body, nil
}

// appliedSoon reports whether the handler applies an operation within a
// short real-time wait.
func (h *orderedHandler) appliedSoon() bool {
	select {
	case <-h.applied:
		return true
	case <-time.After(50 * time.Millisecond):
		return false
	}
}

// costedServer starts a one-daemon server with cfg's handler charging
// testFrameCost per frame and testOpCost per operation on mc, serving srvConn.
func costedServer(t *testing.T, mc *clock.Manual, cfg ServerConfig, srvConn netsim.Conn) *Server {
	t.Helper()
	cfg.Daemons, cfg.FrameCost, cfg.OpCost, cfg.Clock = 1, testFrameCost, testOpCost, mc
	srv := NewServer(cfg)
	go srv.ServeConn(srvConn)
	t.Cleanup(func() {
		// Close waits for daemons that may still sleep on mc.
		closed := make(chan struct{})
		go func() { srv.Close(); close(closed) }()
		for {
			select {
			case <-closed:
				return
			default:
				mc.Advance(time.Hour)
				time.Sleep(100 * time.Microsecond)
			}
		}
	})
	return srv
}

// waitSleepers blocks until n goroutines sleep on mc.
func waitSleepers(t *testing.T, mc *clock.Manual, n int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for mc.Waiters() < n {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines sleep on the clock, want %d", mc.Waiters(), n)
		}
		time.Sleep(100 * time.Microsecond)
	}
}

// A daemon that wakes late makes it up: a compound costing FrameCost +
// 2·OpCost needs one clock step of that sum, after which both sub-operations
// apply, in frame order, and the reply is handed off. The daemon woke 2·OpCost
// past its first deadline, and the lateness counter says so.
func TestDaemonCatchesUpAfterLateWakeup(t *testing.T) {
	mc := clock.NewManual()
	h := newOrderedHandler()
	cliConn, srvConn := localPair(t)
	srv := costedServer(t, mc, ServerConfig{Handler: h.handle}, srvConn)
	reg := obs.NewRegistry()
	srv.RegisterMetrics(reg, nil)
	cli := NewClient(cliConn, mc)
	defer cli.Close()

	type outcome struct {
		res []SubResult
		err error
	}
	done := make(chan outcome, 1)
	go func() {
		res, err := cli.Compound([]SubOp{{Op: 1, Body: []byte("a")}, {Op: 2, Body: []byte("b")}})
		done <- outcome{res, err}
	}()
	waitSleepers(t, mc, 1)
	mc.Advance(testFrameCost + 2*testOpCost)
	select {
	case out := <-done:
		if out.err != nil || len(out.res) != 2 || string(out.res[0].Body) != "a" || string(out.res[1].Body) != "b" {
			t.Fatalf("compound = %+v, %v", out.res, out.err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("one clock step of the frame's whole cost did not answer it: the late wakeup stretched the charges after it")
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	if len(h.ops) != 2 || h.ops[0] != 1 || h.ops[1] != 2 {
		t.Fatalf("applied %v, want [1 2]", h.ops)
	}
	late, _ := reg.Snapshot().Get("redbud_rpc_late_ns_total")
	if late.Value != int64(2*testOpCost) {
		t.Fatalf("redbud_rpc_late_ns_total = %d, want %d", late.Value, 2*testOpCost)
	}
}

// The charge of a frame starts at its modeled arrival: a frame the server's
// reader picks up FrameCost + OpCost after it arrived (on a gigabit link) is
// applied at once, not FrameCost + OpCost after the receive.
func TestDaemonChargeStartsAtArrival(t *testing.T) {
	mc := clock.NewManual()
	h := newOrderedHandler()
	_, cliConn, srvConn := linkPair(t, mc, netsim.GigabitEthernet())
	costedServer(t, mc, ServerConfig{Handler: h.handle}, srvConn)
	cli := NewClient(cliConn, mc)
	defer cli.Close()

	called := make(chan error, 1)
	go func() {
		_, err := cli.CallRaw(opEcho, []byte("x"))
		called <- err
	}()
	waitSleepers(t, mc, 1) // the request's arrival
	arrival, _ := mc.NextDeadline()
	mc.Advance(arrival.Sub(mc.Now()) + testFrameCost + testOpCost)
	if !h.appliedSoon() {
		t.Fatal("frame delivered FrameCost + OpCost after its arrival was not applied at once: the charge started at the receive")
	}
	for {
		select {
		case err := <-called:
			if err != nil {
				t.Fatal(err)
			}
			return
		default:
			if !mc.AdvanceToNext() {
				time.Sleep(100 * time.Microsecond)
			}
		}
	}
}

// An idle daemon banks no idle time: a frame that reaches a daemon idle for
// 10 ms still costs its full FrameCost + OpCost after it arrived. The clock
// steps onto each deadline, so the daemon never wakes late.
func TestIdleDaemonBanksNoTime(t *testing.T) {
	mc := clock.NewManual()
	h := newOrderedHandler()
	cliConn, srvConn := localPair(t)
	costedServer(t, mc, ServerConfig{Handler: h.handle}, srvConn)
	cli := NewClient(cliConn, mc)
	defer cli.Close()

	call := func() <-chan error {
		ch := make(chan error, 1)
		go func() {
			_, err := cli.CallRaw(opEcho, nil)
			ch <- err
		}()
		return ch
	}
	first := call()
	waitSleepers(t, mc, 1)
	mc.Advance(testFrameCost)
	waitSleepers(t, mc, 1)
	mc.Advance(testOpCost)
	if err := <-first; err != nil {
		t.Fatal(err)
	}
	<-h.applied
	mc.Advance(10 * time.Millisecond)

	second := call()
	waitSleepers(t, mc, 1)
	mc.Advance(testFrameCost)
	waitSleepers(t, mc, 1)
	mc.Advance(testOpCost - time.Nanosecond)
	if h.appliedSoon() {
		t.Fatal("frame after an idle spell applied before its full cost: the daemon banked idle time")
	}
	mc.Advance(time.Nanosecond)
	if err := <-second; err != nil {
		t.Fatal(err)
	}
}

// A reply leaves when its cause ended in modeled time: at the later of the
// frame's modeled end and the instant its Pending completion became durable,
// so it arrives that instant + wire time, however late the host ran the
// daemon and the completion stage. The handler is told its operation's
// deadline, not the instant its daemon woke, and the late completion shows
// in redbud_rpc_absorbed_ns_total: how far past that instant the reply was
// posted.
func TestReplyLeavesWhenItsCauseEnded(t *testing.T) {
	const late = 10 * time.Millisecond
	frameEnd := testFrameCost + testOpCost
	for _, tc := range []struct {
		name    string
		durable time.Duration
	}{
		{"durable after the frame ended", frameEnd + time.Millisecond},
		{"durable before the frame ended", frameEnd - time.Millisecond},
	} {
		t.Run(tc.name, func(t *testing.T) {
			mc := clock.NewManual()
			t0 := mc.Now()
			// Requests cross an instant link; replies pay a gigabit one.
			lc := netsim.GigabitEthernet()
			n := netsim.NewNetwork(mc)
			n.AddHost("c", lc)
			n.AddHost("s", netsim.Instant())
			l, err := n.Listen("s")
			if err != nil {
				t.Fatal(err)
			}
			cliConn, err := n.Dial("c", "s")
			if err != nil {
				t.Fatal(err)
			}
			defer cliConn.Close()
			srvConn, err := l.Accept()
			if err != nil {
				t.Fatal(err)
			}
			told := make(chan time.Time, 1)
			durable := make(chan time.Time)
			h := func(at time.Time, _ uint16, _ []byte) ([]byte, error) {
				told <- at
				return nil, Pending(func() ([]byte, time.Time, error) { return []byte("ok"), <-durable, nil })
			}
			srv := costedServer(t, mc, ServerConfig{TimedHandler: h}, srvConn)
			reg := obs.NewRegistry()
			srv.RegisterMetrics(reg, nil)

			sendRaw(t, cliConn, 1, opPend, nil)
			waitSleepers(t, mc, 1)
			mc.Advance(late) // the daemon wakes late past its first deadline
			if at := <-told; !at.Equal(t0.Add(frameEnd)) {
				t.Fatalf("handler told +%v, want its deadline +%v", at.Sub(t0), frameEnd)
			}
			durable <- t0.Add(tc.durable) // and the completion stage runs late too
			type received struct {
				f   []byte
				arr time.Time
				err error
			}
			got := make(chan received, 1)
			go func() {
				f, arr, err := netsim.RecvAt(cliConn)
				got <- received{f, arr, err}
			}()
			var r received
			select {
			case r = <-got:
			case <-time.After(5 * time.Second):
				t.Fatal("no reply without a clock step: it was sent from when the completion ran, not from when its cause ended")
			}
			f, arr, err := r.f, r.arr, r.err
			if err != nil {
				t.Fatal(err)
			}
			leave := max(frameEnd, tc.durable)
			xmit := time.Duration(float64(len(f)) * 8 / (lc.BandwidthMbps * 1e6) * float64(time.Second))
			wire.PutFrame(f)
			if want := t0.Add(leave + lc.PerMessage + xmit + lc.Latency); !arr.Equal(want) {
				t.Fatalf("reply arrived at +%v, want +%v: it left when the completion ran, not when its cause ended", arr.Sub(t0), want.Sub(t0))
			}
			absorbed, _ := reg.Snapshot().Get("redbud_rpc_absorbed_ns_total")
			if want := int64(late - leave); absorbed.Value != want {
				t.Fatalf("redbud_rpc_absorbed_ns_total = %d, want %d", absorbed.Value, want)
			}
		})
	}
}
