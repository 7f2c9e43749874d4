package netsim

import (
	"bytes"
	"errors"
	"io"
	"net"
	"sync"
	"testing"
	"time"

	"redbud/internal/clock"
)

func newFabric(t *testing.T, lc LinkConfig, hosts ...string) *Network {
	t.Helper()
	n := NewNetwork(clock.Real(1))
	for _, h := range hosts {
		n.AddHost(h, lc)
	}
	return n
}

func dialPair(t *testing.T, n *Network, from, to string) (Conn, Conn) {
	t.Helper()
	l, err := n.Listen(to)
	if err != nil {
		t.Fatal(err)
	}
	var server Conn
	var serr error
	done := make(chan struct{})
	go func() {
		server, serr = l.Accept()
		close(done)
	}()
	client, err := n.Dial(from, to)
	if err != nil {
		t.Fatal(err)
	}
	<-done
	if serr != nil {
		t.Fatal(serr)
	}
	return client, server
}

func TestSendRecvRoundTrip(t *testing.T) {
	n := newFabric(t, Instant(), "a", "b")
	c, s := dialPair(t, n, "a", "b")
	defer c.Close()
	go func() {
		f, err := s.Recv()
		if err != nil {
			t.Error(err)
			return
		}
		s.Send(append([]byte("echo:"), f...))
	}()
	if err := c.Send([]byte("ping")); err != nil {
		t.Fatal(err)
	}
	got, err := c.Recv()
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "echo:ping" {
		t.Fatalf("got %q", got)
	}
}

func TestSendCopiesFrame(t *testing.T) {
	n := newFabric(t, Instant(), "a", "b")
	c, s := dialPair(t, n, "a", "b")
	defer c.Close()
	buf := []byte("original")
	if err := c.Send(buf); err != nil {
		t.Fatal(err)
	}
	copy(buf, "mutated!")
	got, err := s.Recv()
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "original" {
		t.Fatalf("frame aliased sender buffer: %q", got)
	}
}

func TestCloseUnblocksRecv(t *testing.T) {
	n := newFabric(t, Instant(), "a", "b")
	c, s := dialPair(t, n, "a", "b")
	errc := make(chan error, 1)
	go func() {
		_, err := s.Recv()
		errc <- err
	}()
	c.Close()
	select {
	case err := <-errc:
		if !errors.Is(err, io.EOF) {
			t.Fatalf("err = %v, want EOF", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Recv did not unblock on close")
	}
	if err := c.Send([]byte("x")); !errors.Is(err, ErrClosed) {
		t.Fatalf("send after close err = %v", err)
	}
}

func TestRecvDrainsAfterClose(t *testing.T) {
	n := newFabric(t, Instant(), "a", "b")
	c, s := dialPair(t, n, "a", "b")
	if err := c.Send([]byte("pending")); err != nil {
		t.Fatal(err)
	}
	c.Close()
	got, err := s.Recv()
	if err != nil {
		t.Fatalf("delivered frame lost on close: %v", err)
	}
	if string(got) != "pending" {
		t.Fatalf("got %q", got)
	}
}

func TestDialErrors(t *testing.T) {
	n := newFabric(t, Instant(), "a", "b")
	if _, err := n.Dial("ghost", "b"); !errors.Is(err, ErrUnknownHost) {
		t.Fatalf("unknown from err = %v", err)
	}
	if _, err := n.Dial("a", "ghost"); !errors.Is(err, ErrUnknownHost) {
		t.Fatalf("unknown to err = %v", err)
	}
	if _, err := n.Dial("a", "b"); err == nil {
		t.Fatal("dial to non-listening host succeeded")
	}
	if _, err := n.Listen("ghost"); !errors.Is(err, ErrUnknownHost) {
		t.Fatalf("listen unknown err = %v", err)
	}
}

func TestListenerClose(t *testing.T) {
	n := newFabric(t, Instant(), "a", "b")
	l, _ := n.Listen("b")
	l.Close()
	l.Close() // idempotent
	if _, err := l.Accept(); !errors.Is(err, io.EOF) {
		t.Fatalf("accept after close err = %v", err)
	}
	if _, err := n.Dial("a", "b"); !errors.Is(err, io.EOF) {
		t.Fatalf("dial to closed listener err = %v", err)
	}
}

func TestTransmitTimeScalesWithSize(t *testing.T) {
	lc := LinkConfig{BandwidthMbps: 8} // 1 byte/us
	if got := lc.transmitTime(1000); got != time.Millisecond {
		t.Fatalf("transmit(1000) = %v, want 1ms", got)
	}
	if lc.transmitTime(0) != 0 {
		t.Fatal("empty frame not free")
	}
	if Instant().transmitTime(1<<20) != 0 {
		t.Fatal("instant link charged time")
	}
}

func TestLinkCongestionSignal(t *testing.T) {
	// Slow link: 10ms per message. Concurrent senders queue, so the
	// congestion EWMA must rise.
	lc := LinkConfig{BandwidthMbps: 1000, PerMessage: 10 * time.Millisecond}
	n := NewNetwork(clock.Real(0.01)) // 100x compression
	n.AddHost("client", lc)
	n.AddHost("mds", lc)
	c, s := dialPair(t, n, "client", "mds")
	defer c.Close()
	go func() {
		for {
			if _, err := s.Recv(); err != nil {
				return
			}
		}
	}()
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 4; j++ {
				c.Send([]byte("x"))
			}
		}()
	}
	wg.Wait()
	if w := n.CongestionWait("mds"); w == 0 {
		t.Fatal("no queueing delay observed under flood")
	}
	st, err := n.HostStats("mds")
	if err != nil {
		t.Fatal(err)
	}
	if st.Messages != 64 || st.Bytes != 64 {
		t.Fatalf("stats = %+v", st)
	}
	if _, err := n.HostStats("ghost"); err == nil {
		t.Fatal("stats for unknown host succeeded")
	}
	if n.CongestionWait("ghost") != 0 {
		t.Fatal("congestion for unknown host nonzero")
	}
}

func TestPerMessageOverheadDominatesSmallFrames(t *testing.T) {
	// Sending k small frames costs ~k*PerMessage; one frame of the same
	// total bytes costs ~1*PerMessage — the compound-RPC economics.
	lc := LinkConfig{BandwidthMbps: 1e9, PerMessage: 5 * time.Millisecond, Latency: 0}
	n := NewNetwork(clock.Real(0.01))
	n.AddHost("a", lc)
	n.AddHost("b", lc)
	c, s := dialPair(t, n, "a", "b")
	defer c.Close()
	go func() {
		for {
			if _, err := s.Recv(); err != nil {
				return
			}
		}
	}()
	start := time.Now()
	for i := 0; i < 10; i++ {
		c.Send(make([]byte, 100))
	}
	many := time.Since(start)
	start = time.Now()
	c.Send(make([]byte, 1000))
	one := time.Since(start)
	if many < 5*one {
		t.Fatalf("10 small frames (%v) not ≫ 1 large frame (%v)", many, one)
	}
}

func TestFrameSizeLimit(t *testing.T) {
	n := newFabric(t, Instant(), "a", "b")
	c, _ := dialPair(t, n, "a", "b")
	defer c.Close()
	if err := c.Send(make([]byte, maxFrame+1)); !errors.Is(err, ErrFrameSize) {
		t.Fatalf("oversized frame err = %v", err)
	}
}

func TestFrameConnOverPipe(t *testing.T) {
	p1, p2 := net.Pipe()
	a, b := FrameConn(p1), FrameConn(p2)
	defer a.Close()
	defer b.Close()
	go func() {
		f, err := b.Recv()
		if err != nil {
			t.Error(err)
			return
		}
		b.Send(f)
	}()
	msg := bytes.Repeat([]byte{7}, 10000)
	if err := a.Send(msg); err != nil {
		t.Fatal(err)
	}
	got, err := a.Recv()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, msg) {
		t.Fatal("tcp frame round-trip mismatch")
	}
}

func TestFrameConnConcurrentSenders(t *testing.T) {
	p1, p2 := net.Pipe()
	a, b := FrameConn(p1), FrameConn(p2)
	defer a.Close()
	defer b.Close()
	const n = 50
	go func() {
		var wg sync.WaitGroup
		for i := 0; i < n; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				a.Send(bytes.Repeat([]byte{1}, 100))
			}()
		}
		wg.Wait()
	}()
	for i := 0; i < n; i++ {
		f, err := b.Recv()
		if err != nil {
			t.Fatal(err)
		}
		if len(f) != 100 {
			t.Fatalf("frame %d torn: len %d", i, len(f))
		}
	}
}

func TestMultipleConnections(t *testing.T) {
	n := newFabric(t, Instant(), "mds", "c1", "c2", "c3")
	l, err := n.Listen("mds")
	if err != nil {
		t.Fatal(err)
	}
	go func() {
		for {
			conn, err := l.Accept()
			if err != nil {
				return
			}
			go func() {
				for {
					f, err := conn.Recv()
					if err != nil {
						return
					}
					conn.Send(f)
				}
			}()
		}
	}()
	var wg sync.WaitGroup
	for _, host := range []string{"c1", "c2", "c3"} {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c, err := n.Dial(host, "mds")
			if err != nil {
				t.Error(err)
				return
			}
			defer c.Close()
			msg := []byte(host)
			c.Send(msg)
			got, err := c.Recv()
			if err != nil || !bytes.Equal(got, msg) {
				t.Errorf("%s: got %q err %v", host, got, err)
			}
		}()
	}
	wg.Wait()
}

// RecvAt returns a frame's modeled arrival on a link that models one, and
// the zero time where there is none: an instant link and a TCP FrameConn.
func TestRecvAtReportsModeledArrival(t *testing.T) {
	mc := clock.NewManual()
	n := NewNetwork(mc)
	n.AddHost("a", GigabitEthernet())
	n.AddHost("b", GigabitEthernet())
	c, s := dialPair(t, n, "a", "b")
	defer c.Close()
	sent := make(chan error, 1)
	go func() { sent <- c.Send([]byte("ping")) }()
	for mc.Waiters() == 0 {
		time.Sleep(100 * time.Microsecond)
	}
	want, _ := mc.NextDeadline()
	// Deliver late: the arrival stays the modeled one, not the wakeup.
	mc.Advance(want.Sub(mc.Now()) + time.Millisecond)
	if err := <-sent; err != nil {
		t.Fatal(err)
	}
	f, at, err := RecvAt(s)
	if err != nil || string(f) != "ping" {
		t.Fatalf("RecvAt = %q, %v", f, err)
	}
	if !at.Equal(want) {
		t.Fatalf("arrival %v, want the modeled %v", at.Sub(clock.Epoch), want.Sub(clock.Epoch))
	}

	ic, is := dialPair(t, newFabric(t, Instant(), "a", "b"), "a", "b")
	defer ic.Close()
	if err := ic.Send([]byte("x")); err != nil {
		t.Fatal(err)
	}
	if _, at, err := RecvAt(is); err != nil || !at.IsZero() {
		t.Fatalf("instant link: arrival %v, err %v; want the zero time", at, err)
	}

	p1, p2 := net.Pipe()
	a, b := FrameConn(p1), FrameConn(p2)
	defer a.Close()
	defer b.Close()
	go a.Send([]byte("y"))
	if _, at, err := RecvAt(b); err != nil || !at.IsZero() {
		t.Fatalf("FrameConn: arrival %v, err %v; want the zero time", at, err)
	}
}

// A frame posted from a past send instant is charged from that instant, but
// its slot never starts before the link is free: behind a frame still on the
// wire it queues, so arrivals on one link keep their posting order; on a link
// idle since before the instant it starts at the instant, however late the
// sender got to post it. An instant in the future is read as now.
func TestPostFromPastInstant(t *testing.T) {
	mc := clock.NewManual()
	lc := GigabitEthernet()
	n := NewNetwork(mc)
	n.AddHost("a", lc)
	n.AddHost("b", lc)
	c, s := dialPair(t, n, "a", "b")
	defer c.Close()
	t0 := mc.Now()
	frame := []byte("0123456789")
	slot := lc.PerMessage + lc.transmitTime(len(frame))
	var posted []InFlight
	post := func(at time.Time) time.Time {
		t.Helper()
		fl, err := PostVec(c, at, frame, nil)
		if err != nil {
			t.Fatal(err)
		}
		posted = append(posted, fl)
		return fl.at
	}

	mc.Advance(time.Millisecond)
	first := post(t0) // sent 1 ms ago on an idle link
	if want := t0.Add(slot + lc.Latency); !first.Equal(want) {
		t.Fatalf("first frame arrives at +%v, want +%v: an idle link charges from the send instant", first.Sub(t0), want.Sub(t0))
	}
	// The first frame's slot ended in the past; hold the link busy with one
	// sent now, then post from before it: the third frame queues behind.
	second := post(time.Time{})
	third := post(t0)
	if !third.Equal(second.Add(slot)) {
		t.Fatalf("frame posted from +0 behind one sent at +1ms arrives at +%v, want +%v: it started before the link was free",
			third.Sub(t0), second.Add(slot).Sub(t0))
	}
	if future := post(mc.Now().Add(time.Hour)); !future.Equal(third.Add(slot)) {
		t.Fatalf("frame posted from the future arrives at +%v, want +%v", future.Sub(t0), third.Add(slot).Sub(t0))
	}
	mc.Advance(time.Hour)
	for i, fl := range posted {
		if err := fl.Arrive(); err != nil {
			t.Fatal(err)
		}
		if f, at, err := RecvAt(s); err != nil || string(f) != string(frame) || !at.Equal(fl.at) {
			t.Fatalf("frame %d: %q at +%v, %v; want it at +%v", i, f, at.Sub(t0), err, fl.at.Sub(t0))
		}
	}
}
