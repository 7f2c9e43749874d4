package rpc

import (
	"bytes"
	"errors"
	"sync"
	"testing"
	"time"

	"redbud/internal/clock"
	"redbud/internal/netsim"
	"redbud/internal/wire"
)

// opPend is applied at once and acknowledged once the test settles its
// record, the way the MDS acknowledges a journaled operation.
const opPend uint16 = 100

// gateJournal stands in for the MDS journal. An opPend request carrying a
// u32 record number leaves its completion Pending until settle(record) gives
// the outcome of the journal write that holds the record; the reply is the
// record number. Every other operation goes to testHandler.
type gateJournal struct {
	mu    sync.Mutex
	gates map[uint32]chan error
}

func newGateJournal() *gateJournal { return &gateJournal{gates: make(map[uint32]chan error)} }

func (j *gateJournal) gate(rec uint32) chan error {
	j.mu.Lock()
	defer j.mu.Unlock()
	g, ok := j.gates[rec]
	if !ok {
		g = make(chan error, 1)
		j.gates[rec] = g
	}
	return g
}

func (j *gateJournal) settle(rec uint32, err error) { j.gate(rec) <- err }

func (j *gateJournal) handle(op uint16, body []byte) ([]byte, error) {
	if op != opPend {
		return testHandler(op, body)
	}
	rec := wire.NewReader(body).U32()
	g := j.gate(rec)
	return nil, Pending(func() ([]byte, time.Time, error) {
		if err := <-g; err != nil {
			return nil, time.Time{}, err
		}
		var b wire.Buffer
		b.PutU32(rec)
		return b.Bytes(), time.Time{}, nil
	})
}

func recBody(rec uint32) []byte {
	var b wire.Buffer
	b.PutU32(rec)
	return b.Bytes()
}

// sendRaw writes one request frame with message ID id straight onto conn.
func sendRaw(t *testing.T, conn netsim.Conn, id uint64, op uint16, body []byte) {
	t.Helper()
	var b wire.Buffer
	b.PutU64(id)
	b.PutU8(kindRequest)
	b.PutU16(op)
	b.PutRaw(body)
	if err := conn.Send(b.Bytes()); err != nil {
		t.Fatal(err)
	}
}

// replyIDs reads reply frames off conn and sends on their message IDs.
func replyIDs(conn netsim.Conn) <-chan uint64 {
	ids := make(chan uint64, 1024)
	go func() {
		defer close(ids)
		for {
			f, err := conn.Recv()
			if err != nil {
				return
			}
			ids <- wire.NewReader(f).U64()
			wire.PutFrame(f)
		}
	}()
	return ids
}

func nextReply(t *testing.T, ids <-chan uint64) uint64 {
	t.Helper()
	select {
	case id := <-ids:
		return id
	case <-time.After(5 * time.Second):
		t.Fatal("no reply")
		return 0
	}
}

func noReply(t *testing.T, ids <-chan uint64, why string) {
	t.Helper()
	select {
	case id := <-ids:
		t.Fatalf("reply to %d %s", id, why)
	case <-time.After(20 * time.Millisecond):
	}
}

// waitFor polls cond until it holds, failing after five seconds.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); !cond(); time.Sleep(100 * time.Microsecond) {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
	}
}

// A connection's completions run in the order its frames were applied, even
// when a later record settles first; a frame with nothing pending does not
// queue behind them, and frames owed a completion weigh nothing in Load.
func TestCompletionsFIFOPerConnection(t *testing.T) {
	j := newGateJournal()
	srv := NewServer(ServerConfig{Handler: j.handle, Daemons: 1})
	defer srv.Close()
	cliConn, srvConn := localPair(t)
	defer cliConn.Close()
	go srv.ServeConn(srvConn)
	ids := replyIDs(cliConn)

	const owed = 3
	for id := uint64(1); id <= owed; id++ {
		sendRaw(t, cliConn, id, opPend, recBody(uint32(id)))
	}
	waitFor(t, "the pending frames to leave the daemon", func() bool { return srv.owedBacklog.Load() == owed })
	if load := srv.Load(); load != 0 {
		t.Fatalf("Load = %d with only completions owed, want 0", load)
	}
	sendRaw(t, cliConn, 99, opEcho, nil)
	if id := nextReply(t, ids); id != 99 {
		t.Fatalf("first reply is to %d, want the echo (99) that owes nothing", id)
	}

	for rec := uint32(owed); rec > 1; rec-- {
		j.settle(rec, nil)
	}
	noReply(t, ids, "while the first frame's record is unsettled")
	j.settle(1, nil)
	for want := uint64(1); want <= owed; want++ {
		if id := nextReply(t, ids); id != want {
			t.Fatalf("reply %d is to frame %d: completions reordered", want, id)
		}
	}
}

// Close returns only once every frame a daemon applied has been answered,
// those still owed a completion included.
func TestCloseDeliversOwedCompletions(t *testing.T) {
	j := newGateJournal()
	srv := NewServer(ServerConfig{Handler: j.handle, Daemons: 2})
	cliConn, srvConn := localPair(t)
	go srv.ServeConn(srvConn)
	cli := NewClient(cliConn, clock.Real(1))
	defer cli.Close()

	const calls = 4
	errs := make(chan error, calls)
	for rec := uint32(1); rec <= calls; rec++ {
		go func() {
			got, err := cli.CallRaw(opPend, recBody(rec))
			if err == nil && !bytes.Equal(got, recBody(rec)) {
				err = errors.New("reply carries another record")
			}
			errs <- err
		}()
	}
	waitFor(t, "every call to be applied", func() bool { return srv.owedBacklog.Load() == calls })
	closed := make(chan struct{})
	go func() { srv.Close(); close(closed) }()
	select {
	case <-closed:
		t.Fatal("Close returned with completions still owed")
	case <-time.After(20 * time.Millisecond):
	}
	for rec := uint32(1); rec <= calls; rec++ {
		j.settle(rec, nil)
	}
	select {
	case <-closed:
	case <-time.After(5 * time.Second):
		t.Fatal("Close did not return once the completions were done")
	}
	for i := 0; i < calls; i++ {
		if err := <-errs; err != nil {
			t.Errorf("call owed a completion at Close: %v", err)
		}
	}
}

// A connection holds at most replyQueueCap frames waiting for completions,
// plus the one being completed; beyond that its daemons wait.
func TestCompletionBackPressure(t *testing.T) {
	const requests = replyQueueCap + 20
	j := newGateJournal()
	srv := NewServer(ServerConfig{Handler: j.handle, Daemons: 1, QueueCap: requests})
	defer srv.Close()
	cliConn, srvConn := localPair(t)
	defer cliConn.Close()
	go srv.ServeConn(srvConn)
	ids := replyIDs(cliConn)

	for id := uint64(1); id <= requests; id++ {
		sendRaw(t, cliConn, id, opPend, recBody(uint32(id)))
	}
	// One frame on the completion stage, replyQueueCap queued for it, and
	// the daemon blocked handing over the next.
	const applied = replyQueueCap + 2
	waitFor(t, "the daemon to fill the completion queue", func() bool { return srv.SubOps() == applied })
	time.Sleep(20 * time.Millisecond)
	if got := srv.SubOps(); got != applied {
		t.Fatalf("%d frames applied with none completed, want %d: no back-pressure", got, applied)
	}
	for rec := uint32(1); rec <= requests; rec++ {
		j.settle(rec, nil)
	}
	for want := uint64(1); want <= requests; want++ {
		if id := nextReply(t, ids); id != want {
			t.Fatalf("reply %d is to frame %d", want, id)
		}
	}
}

// A journal write that tears fails every operation whose record it held —
// each in its own slot of a compound — and acknowledges none of them, while
// an operation of the same frame that owed nothing keeps its reply.
func TestTornJournalWriteAcknowledgesNothing(t *testing.T) {
	j := newGateJournal()
	cli, _ := newPair(t, ServerConfig{Handler: j.handle, Daemons: 1})
	errTorn := errors.New("journal write torn")
	done := make(chan []SubResult, 1)
	go func() {
		res, err := cli.Compound([]SubOp{{Op: opPend, Body: recBody(1)}, {Op: opEcho, Body: []byte("x")}, {Op: opPend, Body: recBody(2)}})
		if err != nil {
			t.Error(err)
		}
		done <- res
	}()
	single := make(chan error, 1)
	go func() { _, err := cli.CallRaw(opPend, recBody(3)); single <- err }()
	for rec := uint32(1); rec <= 3; rec++ {
		j.settle(rec, errTorn)
	}
	res := <-done
	if len(res) != 3 {
		t.Fatalf("%d results, want 3", len(res))
	}
	for _, i := range []int{0, 2} {
		if res[i].Err == nil {
			t.Errorf("sub-op %d acknowledged although its journal write tore", i)
		}
	}
	if res[1].Err != nil || string(res[1].Body) != "x" {
		t.Errorf("the echo between them: %q, %v", res[1].Body, res[1].Err)
	}
	var re *RemoteError
	if err := <-single; !errors.As(err, &re) {
		t.Fatalf("operation whose write tore returned %v, want a remote error", err)
	}
}
