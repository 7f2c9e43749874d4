package rpc

import (
	"bytes"
	"fmt"
	"sync"
	"testing"
	"time"

	"redbud/internal/clock"
	"redbud/internal/netsim"
	"redbud/internal/obs"
	"redbud/internal/wire"
)

// linkPair dials a connection between hosts "c" and "s" whose ingress links
// both have lc, on clk.
func linkPair(t *testing.T, clk clock.Clock, lc netsim.LinkConfig) (n *netsim.Network, cli, srv netsim.Conn) {
	t.Helper()
	n = netsim.NewNetwork(clk)
	n.AddHost("c", lc)
	n.AddHost("s", lc)
	l, err := n.Listen("s")
	if err != nil {
		t.Fatal(err)
	}
	cli, err = n.Dial("c", "s")
	if err != nil {
		t.Fatal(err)
	}
	srv, err = l.Accept()
	if err != nil {
		t.Fatal(err)
	}
	return n, cli, srv
}

// The daemon hands a reply to the connection's writer and takes the next
// request while that reply is still on the wire. With the send inline in the
// daemon (the design this replaces) the second rpc.process span could not
// start before the first reply had arrived.
func TestDaemonFreedBeforeReplyArrives(t *testing.T) {
	mc := clock.NewManual()
	tr := obs.NewTracer(0)
	n, cliConn, srvConn := linkPair(t, mc, netsim.GigabitEthernet())
	n.SetTracer(tr)
	srv := NewServer(ServerConfig{Handler: rawEcho, Daemons: 1, OpCost: time.Millisecond, Clock: mc, Tracer: tr})
	go srv.ServeConn(srvConn)
	cli := NewClient(cliConn, mc)

	var calls sync.WaitGroup
	for i := 0; i < 2; i++ {
		calls.Add(1)
		go func() {
			defer calls.Done()
			if _, err := cli.CallRaw(opEcho, []byte("x")); err != nil {
				t.Error(err)
			}
		}()
	}
	finished := make(chan struct{})
	go func() { calls.Wait(); close(finished) }()
	for done := false; !done; {
		select {
		case <-finished:
			done = true
		default:
			if !mc.AdvanceToNext() {
				time.Sleep(100 * time.Microsecond) // let the actors reach their next sleep
			}
		}
	}
	cli.Close()
	srv.Close()

	var process, replyXmit, reply []obs.Span
	for _, s := range tr.Spans() {
		switch {
		case s.Name == obs.SpanRPCProcess:
			process = append(process, s)
		case s.Name == obs.SpanNetXmit && s.Track == "net/c":
			replyXmit = append(replyXmit, s)
		case s.Name == obs.SpanRPCReply:
			reply = append(reply, s)
		}
	}
	if len(process) != 2 || len(replyXmit) != 2 || len(reply) != 2 {
		t.Fatalf("got %d rpc.process, %d reply net.xmit, %d rpc.reply spans, want 2 each", len(process), len(replyXmit), len(reply))
	}
	if !process[1].Start.Before(replyXmit[0].End) {
		t.Fatalf("second rpc.process starts at %v, first reply leaves the link at %v: the daemon waited for the wire",
			process[1].Start.Sub(clock.Epoch), replyXmit[0].End.Sub(clock.Epoch))
	}
	// Wire time no longer hides inside rpc.process; rpc.reply shows it, from
	// the hand-off that ends rpc.process until the reply has arrived.
	for i, r := range reply {
		if r.Track != process[i].Track || !r.Start.Equal(process[i].End) {
			t.Errorf("rpc.reply %d on %s from %v, want on %s from the end of rpc.process %v",
				i, r.Track, r.Start.Sub(clock.Epoch), process[i].Track, process[i].End.Sub(clock.Epoch))
		}
		if r.End.Before(replyXmit[i].End) {
			t.Errorf("rpc.reply %d ends at %v, before its frame left the link at %v", i, r.End.Sub(clock.Epoch), replyXmit[i].End.Sub(clock.Epoch))
		}
	}
}

// An echo handler's payload aliases the pooled request frame. The frame now
// crosses from the daemon to the reply writer, which recycles it after the
// send; under -race this catches a frame recycled (and reused by another
// call) while its reply is still being gathered.
func TestAliasedPayloadSurvivesHandOff(t *testing.T) {
	for _, tc := range []struct {
		name string
		lc   netsim.LinkConfig
	}{{"instant", netsim.Instant()}, {"gigabit", netsim.GigabitEthernet()}} {
		t.Run(tc.name, func(t *testing.T) {
			clk := clock.Real(1)
			_, cliConn, srvConn := linkPair(t, clk, tc.lc)
			srv := NewServer(ServerConfig{Handler: rawEcho, Daemons: 4, Clock: clk})
			go srv.ServeConn(srvConn)
			cli := NewClient(cliConn, clk)
			defer srv.Close()
			defer cli.Close()

			const callers, each = 64, 20
			var wg sync.WaitGroup
			for g := 0; g < callers; g++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for i := 0; i < each; i++ {
						want := bytes.Repeat([]byte{byte(g), byte(i)}, 40+g)
						got, err := cli.CallRaw(opEcho, want)
						if err != nil {
							t.Error(err)
							return
						}
						if !bytes.Equal(got, want) {
							t.Errorf("caller %d call %d: reply differs from request", g, i)
							return
						}
					}
				}()
			}
			wg.Wait()
		})
	}
}

// Close lets in-flight operations finish; their replies must still reach the
// client, although the daemon that produced them no longer sends them itself.
func TestCloseDeliversFinishedReplies(t *testing.T) {
	const conns = 4
	entered := make(chan struct{}, conns)
	release := make(chan struct{})
	h := func(_ uint16, body []byte) ([]byte, error) {
		entered <- struct{}{}
		<-release
		return append([]byte("done:"), body...), nil
	}
	clk := clock.Real(1)
	srv := NewServer(ServerConfig{Handler: h, Daemons: conns, Clock: clk})
	errs := make(chan error, conns)
	for i := 0; i < conns; i++ {
		_, cliConn, srvConn := linkPair(t, clk, netsim.GigabitEthernet())
		go srv.ServeConn(srvConn)
		cli := NewClient(cliConn, clk)
		defer cli.Close()
		go func() {
			got, err := cli.CallRaw(opEcho, []byte{byte(i)})
			if err == nil && !bytes.Equal(got, append([]byte("done:"), byte(i))) {
				err = fmt.Errorf("conn %d: reply %q", i, got)
			}
			errs <- err
		}()
	}
	for i := 0; i < conns; i++ {
		<-entered
	}
	closed := make(chan struct{})
	go func() { srv.Close(); close(closed) }()
	close(release)
	select {
	case <-closed:
	case <-time.After(5 * time.Second):
		t.Fatal("Close did not return")
	}
	for i := 0; i < conns; i++ {
		select {
		case err := <-errs:
			if err != nil {
				t.Errorf("call in flight at Close: %v", err)
			}
		case <-time.After(5 * time.Second):
			t.Fatal("a reply finished before Close returned was never delivered")
		}
	}
}

// Close must not wait for a reply to a call it left in the queue: whether a
// daemon still takes that call on its way out is a coin toss, and a dropped
// call's reference must not keep Close, or later the connection, waiting.
func TestCloseReturnsWithCallsQueued(t *testing.T) {
	entered := make(chan struct{}, 2)
	release := make(chan struct{})
	h := func(uint16, []byte) ([]byte, error) {
		entered <- struct{}{}
		<-release
		return nil, nil
	}
	srv := NewServer(ServerConfig{Handler: h, Daemons: 1})
	cliConn, srvConn := localPair(t)
	go srv.ServeConn(srvConn)
	cli := NewClient(cliConn, clock.Real(1))
	results := make(chan error, 2)
	go func() { _, err := cli.CallRaw(opEcho, nil); results <- err }()
	<-entered
	go func() { _, err := cli.CallRaw(opEcho, nil); results <- err }()
	for srv.QueueLen() == 0 {
		time.Sleep(100 * time.Microsecond)
	}
	closed := make(chan struct{})
	go func() { srv.Close(); close(closed) }()
	close(release)
	select {
	case <-closed:
	case <-time.After(5 * time.Second):
		t.Fatal("Close did not return with a call still queued")
	}
	if err := <-results; err != nil {
		t.Fatalf("the call in flight at Close: %v", err)
	}
	cli.Close() // fails the queued call if it was dropped
	select {
	case <-results:
	case <-time.After(5 * time.Second):
		t.Fatal("the call queued at Close neither answered nor failed")
	}
}

// A peer that stops reading must stall the daemons serving it rather than
// let replies (and the request frames they pin) pile up without bound, and
// whatever it reads afterwards arrives in the order it was processed.
func TestReplyPathBackPressureAndOrder(t *testing.T) {
	const requests = 3000
	srv := NewServer(ServerConfig{Handler: rawEcho, Daemons: 1, QueueCap: requests})
	defer srv.Close()
	cliConn, srvConn := localPair(t)
	go srv.ServeConn(srvConn)
	defer cliConn.Close()

	go func() {
		var b wire.Buffer
		for id := uint64(1); id <= requests; id++ {
			b.Reset()
			b.PutU64(id)
			b.PutU8(kindRequest)
			b.PutU16(opEcho)
			if err := cliConn.Send(b.Bytes()); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	// Nobody reads: the daemon must stop once the peer's receive buffer and
	// the two stages of the reply path are full.
	last, stable := int64(-1), 0
	for stable < 50 {
		time.Sleep(time.Millisecond)
		if p := counter(srv, "redbud_rpc_processed_total"); p == last {
			stable++
		} else {
			last, stable = p, 0
		}
	}
	if last >= requests {
		t.Fatalf("all %d requests processed with nobody reading replies: no back-pressure", requests)
	}
	for id := uint64(1); id <= requests; id++ {
		f, err := cliConn.Recv()
		if err != nil {
			t.Fatal(err)
		}
		if got := wire.NewReader(f).U64(); got != id {
			t.Fatalf("reply %d carries message ID %d: replies reordered", id, got)
		}
		wire.PutFrame(f)
	}
}
