// Package rpc implements the metadata RPC protocol of the simulated cluster:
// length-framed binary messages (via internal/wire) over a netsim.Conn,
// concurrent client calls with a pending table, a server daemon-thread pool
// of configurable size (the "server daemon threads" axis of Figure 7), and
// first-class compound requests that carry several operations in one network
// frame (the "compound degree" axis).
//
// Every response piggybacks a one-byte server-load estimate, which the
// client's adaptive compound controller reads to decide how aggressively to
// batch.
package rpc

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"redbud/internal/clock"
	"redbud/internal/netsim"
	"redbud/internal/obs"
	"redbud/internal/stats"
	"redbud/internal/wire"
)

// Frame kinds.
const (
	kindRequest  = 0
	kindResponse = 1
)

// OpCompound is the reserved operation code for compound requests.
const OpCompound uint16 = 0xffff

// Errors.
var (
	ErrClientClosed = errors.New("rpc: client closed")
	ErrServerClosed = errors.New("rpc: server closed")
	ErrBadFrame     = errors.New("rpc: malformed frame")
	// ErrConnClosed marks calls that were in flight when the transport
	// died. Unlike ErrBadFrame (protocol corruption on a live link) it is
	// safe grounds for a retry layer to redial and resend idempotent work.
	ErrConnClosed = errors.New("rpc: connection closed")
	// ErrTimeout marks a call that exceeded the client's call timeout. The
	// request may or may not have executed on the server.
	ErrTimeout = errors.New("rpc: call timed out")
)

// RemoteError is an application-level error returned by a handler.
type RemoteError struct {
	Op      uint16
	Message string
}

func (e *RemoteError) Error() string {
	return fmt.Sprintf("rpc: remote error on op %d: %s", e.Op, e.Message)
}

// Handler applies one operation and returns the reply payload. Handlers run
// on server daemon threads, one sub-operation of a frame after another in
// frame order.
//
// A handler whose reply must wait for something after the operation has been
// applied — the MDS's journal durability wait — does not block for it: it
// returns (nil, Pending(fn)). The daemon is freed once every sub-operation of
// the frame has been applied, and the connection's completion stage runs fn,
// so no daemon waits for the journal and a compound of k such operations
// waits once, not k times.
type Handler func(op uint16, body []byte) ([]byte, error)

// TimedHandler is a Handler that is told the modeled instant at which its
// operation runs: the deadline its daemon charged the operation to, whenever
// the host woke the daemon for it, or the zero time when the server charges
// nothing. An MDS handler stamps its journal records with it, so the wait
// for durability starts when the operation ended in modeled time.
type TimedHandler func(at time.Time, op uint16, body []byte) ([]byte, error)

// Pending is the completion half of an operation that has been applied but
// not yet acknowledged, returned by a Handler in place of an error (directly,
// not wrapped). It runs on the connection's completion stage, after the
// frame's last sub-operation was applied, and yields the operation's reply or
// error, which takes the operation's slot in the frame's results, and the
// modeled instant its wait ended (the zero time if it waited for nothing
// modeled): the frame's reply leaves at the later of that and the frame's
// modeled end, however late the completion stage ran. Completions of one
// connection run one after another in the order their frames were applied.
// It rides the error result because the Handler signature is pinned by the
// repository benchmark's callers.
type Pending func() ([]byte, time.Time, error)

func (Pending) Error() string { return "rpc: operation applied, completion pending" }

// ---------------------------------------------------------------------------
// Compound encoding

// SubOp is one operation inside a compound request.
type SubOp struct {
	Op   uint16
	Body []byte
}

// SubResult is one operation's outcome inside a compound reply.
type SubResult struct {
	Err  error
	Body []byte
}

// encodeCompound packs sub-operations into one payload.
func encodeCompound(ops []SubOp) []byte {
	var b wire.Buffer
	b.PutU16(uint16(len(ops)))
	for _, o := range ops {
		b.PutU16(o.Op)
		b.PutBytes(o.Body)
	}
	return b.Bytes()
}

// decodeCompound unpacks a compound request payload.
func decodeCompound(p []byte) ([]SubOp, error) {
	r := wire.NewReader(p)
	n := int(r.U16())
	ops := make([]SubOp, 0, n)
	for i := 0; i < n; i++ {
		ops = append(ops, SubOp{Op: r.U16(), Body: r.Bytes()})
	}
	if err := r.Err(); err != nil {
		return nil, err
	}
	return ops, nil
}

// encodeCompoundReply packs per-sub-op results.
func encodeCompoundReply(results []SubResult) []byte {
	var b wire.Buffer
	b.PutU16(uint16(len(results)))
	for _, res := range results {
		if res.Err != nil {
			b.PutU16(1)
			b.PutString(res.Err.Error())
		} else {
			b.PutU16(0)
			b.PutBytes(res.Body)
		}
	}
	return b.Bytes()
}

// decodeCompoundReply unpacks per-sub-op results, attributing remote errors
// to their sub-operation codes.
func decodeCompoundReply(p []byte, ops []SubOp) ([]SubResult, error) {
	r := wire.NewReader(p)
	n := int(r.U16())
	if n != len(ops) {
		return nil, fmt.Errorf("%w: compound reply has %d results for %d ops", ErrBadFrame, n, len(ops))
	}
	out := make([]SubResult, 0, n)
	for i := 0; i < n; i++ {
		if status := r.U16(); status != 0 {
			out = append(out, SubResult{Err: &RemoteError{Op: ops[i].Op, Message: r.String()}})
		} else {
			out = append(out, SubResult{Body: r.Bytes()})
		}
	}
	if err := r.Err(); err != nil {
		return nil, err
	}
	return out, nil
}

// ---------------------------------------------------------------------------
// Server

// ServerConfig configures a Server.
type ServerConfig struct {
	Handler Handler
	// TimedHandler, if set, serves in place of Handler.
	TimedHandler TimedHandler
	// Daemons is the worker pool size; Figure 7 sweeps 1, 8, 16.
	Daemons int
	// QueueCap bounds the incoming request queue (default 1024).
	QueueCap int
	// OpCost is the simulated CPU time one daemon spends per operation
	// (per sub-operation for compounds).
	OpCost time.Duration
	// FrameCost is the per-RPC-frame overhead (request wakeup, decode,
	// reply construction) paid once regardless of how many sub-operations
	// the frame carries — the server-side saving that RPC compounding
	// buys.
	FrameCost time.Duration
	// ContentionPerDaemon inflates OpCost by this fraction for every
	// daemon beyond the first, modelling the multi-thread contention the
	// paper sees going from 8 to 16 daemons.
	ContentionPerDaemon float64
	Clock               clock.Clock
	// Tracer, if non-nil, records rpc.queue / rpc.process spans for every
	// frame on per-worker tracks "<TraceTrack>/worker-<i>".
	Tracer *obs.Tracer
	// TraceTrack is the span track prefix (default "rpc").
	TraceTrack string
}

// call is one queued request.
type call struct {
	out   *replyPath
	msgID uint64
	op    uint16
	body  []byte    // aliases frame
	frame []byte    // pooled receive buffer; recycled once the reply is on the wire
	arr   time.Time // modeled arrival of the frame; zero when the transport cannot say
	enq   time.Time // enqueue time; stamped only when tracing is on
}

// reply is one finished frame handed from a daemon to its connection's
// reply writer.
type reply struct {
	hdr     *wire.Buffer // pooled response header
	payload []byte       // may alias frame
	frame   []byte       // pooled request frame
	at      time.Time    // modeled instant it leaves; zero when unmodeled
	handoff time.Time    // hand-off time; stamped only when tracing is on
	worker  int          // daemon that produced it, for the rpc.reply span
}

// owed is a frame a daemon has applied whose reply waits for the completions
// its handlers left Pending; the connection's completion stage finishes it.
type owed struct {
	c       call
	results []SubResult
	worker  int
	end     time.Time // the frame's modeled end; zero when the server charges nothing
	applied time.Time // daemon freed; stamped only when tracing is on
}

// posted is a reply on the wire, handed from the reply writer to the
// connection's delivery goroutine.
type posted struct {
	fl      netsim.InFlight
	handoff time.Time
	worker  int
}

// replyQueueCap bounds the frames a connection may have waiting for their
// completions, again the replies waiting for its writer, and again the
// replies it may have on the wire. A healthy link drains far faster than the
// daemon pool fills it, and the journal settles a whole group-commit batch
// at once, so daemons never wait here; a peer that stops reading fills it
// and then blocks the daemons serving it, instead of pinning request frames
// without limit.
const replyQueueCap = 256

// replyPath is the reply side of one connection: a completion goroutine that
// waits out the Pending completions of applied frames in hand-off order, a
// writer goroutine that puts finished frames on the wire in hand-off order,
// and a delivery goroutine that waits out each frame's modeled transmission,
// so neither a daemon nor the next reply waits for the journal or for the
// previous reply to arrive.
type replyPath struct {
	conn    netsim.Conn
	owed    chan owed
	replies chan reply
	wire    chan posted
	// refs counts the connection's reader plus every call it accepted that
	// a daemon has not handed over yet. Whoever drops the last reference
	// closes owed: nothing can send on it any more, nor on replies once the
	// completion stage has drained owed.
	refs atomic.Int64
}

func (p *replyPath) release() {
	if p.refs.Add(-1) == 0 {
		close(p.owed)
	}
}

// Server dispatches decoded requests to a fixed pool of daemon goroutines.
// A frame moves conn reader → queue → daemon → [completion stage] → reply
// writer → delivery; the daemon is held only for FrameCost + k·OpCost + the
// handlers, and only a frame with a Pending sub-operation visits the
// completion stage.
//
// A daemon charges that cost against a deadline built from modeled instants:
// a frame starts at the later of the instant the daemon became free and the
// frame's arrival, and the daemon sleeps to the deadline before each handler.
// A late host wakeup is made up on the next charge instead of passed on to
// it, and an idle daemon banks no idle time.
//
// The modeled instant then travels with the frame: each handler is told the
// deadline of its operation, and the reply is put on the wire from the later
// of the frame's modeled end and the instant its Pending completions became
// durable, not from when the completion stage or the writer got to it.
type Server struct {
	cfg     ServerConfig
	handler TimedHandler
	clk     clock.Clock
	queue   chan call
	done    chan struct{}
	once    sync.Once
	wg      sync.WaitGroup
	connWG  sync.WaitGroup
	// unsent counts frames a daemon handed over whose reply has not been
	// delivered, completions still owed included; Close waits for it after
	// the daemons have exited.
	unsent sync.WaitGroup

	tracks []string // per-worker span track names

	inflight     stats.Gauge
	owedBacklog  stats.Gauge
	replyBacklog stats.Gauge
	processed    stats.Counter
	subOps       stats.Counter
	late         stats.Counter // ns daemons woke past their deadlines
	absorbed     stats.Counter // ns replies were posted past their modeled instants
}

// NewServer starts the daemon pool and returns the server.
func NewServer(cfg ServerConfig) *Server {
	h := cfg.TimedHandler
	if h == nil {
		untimed := cfg.Handler
		if untimed == nil {
			panic("rpc: nil handler")
		}
		h = func(_ time.Time, op uint16, body []byte) ([]byte, error) { return untimed(op, body) }
	}
	if cfg.Daemons <= 0 {
		cfg.Daemons = 1
	}
	if cfg.QueueCap <= 0 {
		cfg.QueueCap = 1024
	}
	if cfg.Clock == nil {
		cfg.Clock = clock.Real(1)
	}
	if cfg.TraceTrack == "" {
		cfg.TraceTrack = "rpc"
	}
	s := &Server{cfg: cfg, handler: h, clk: cfg.Clock, queue: make(chan call, cfg.QueueCap), done: make(chan struct{})}
	s.tracks = make([]string, cfg.Daemons)
	for i := range s.tracks {
		s.tracks[i] = fmt.Sprintf("%s/worker-%d", cfg.TraceTrack, i)
	}
	for i := 0; i < cfg.Daemons; i++ {
		s.wg.Add(1)
		go s.daemon(i)
	}
	return s
}

// opCost returns the effective per-operation CPU time including the
// contention penalty of a wide pool.
func (s *Server) opCost() time.Duration {
	c := float64(s.cfg.OpCost)
	c *= 1 + s.cfg.ContentionPerDaemon*float64(s.cfg.Daemons-1)
	return time.Duration(c)
}

// Load returns the current server load estimate in [0, 255]: 0 when idle,
// saturating as queued+running work exceeds the daemon pool severalfold.
// Frames waiting for their completions and replies waiting for the wire do
// not count: the client's adaptive compound controller reads the estimate as
// daemon pressure, and a frame that has left its daemon holds none.
func (s *Server) Load() uint8 {
	outstanding := int(s.inflight.Load()) + len(s.queue)
	load := outstanding * 64 / s.cfg.Daemons
	if load > 255 {
		load = 255
	}
	return uint8(load)
}

// Processed returns the number of RPCs completed (compound counts once).
func (s *Server) Processed() int64 { return s.processed.Load() }

// SubOps returns the number of operations executed, counting each
// sub-operation of a compound.
func (s *Server) SubOps() int64 { return s.subOps.Load() }

// QueueLen returns the instantaneous request queue length.
func (s *Server) QueueLen() int { return len(s.queue) }

// RegisterMetrics exposes the server's counters in a metrics registry.
func (s *Server) RegisterMetrics(r *obs.Registry, labels obs.Labels) {
	if r == nil {
		return
	}
	r.CounterFunc("redbud_rpc_processed_total", "RPC frames completed (a compound counts once)", labels, s.processed.Load)
	r.CounterFunc("redbud_rpc_subops_total", "operations executed, counting compound sub-ops", labels, s.subOps.Load)
	r.CounterFunc("redbud_rpc_late_ns_total", "nanoseconds daemons woke past their modeled deadlines", labels, s.late.Load)
	r.CounterFunc("redbud_rpc_absorbed_ns_total", "nanoseconds replies were posted past their modeled send instants, absorbed by sending from those instants", labels, s.absorbed.Load)
	r.GaugeFunc("redbud_rpc_queue_len", "instantaneous request queue length", labels,
		func() int64 { return int64(s.QueueLen()) })
	r.GaugeFunc("redbud_rpc_inflight", "requests currently on a daemon thread", labels, s.inflight.Load)
	r.GaugeFunc("redbud_rpc_completions_pending", "applied frames whose reply waits for a pending completion", labels, s.owedBacklog.Load)
	r.GaugeFunc("redbud_rpc_reply_queue_len", "replies handed to a connection's writer and not yet delivered", labels, s.replyBacklog.Load)
	r.GaugeFunc("redbud_rpc_load", "server load estimate in [0,255]", labels,
		func() int64 { return int64(s.Load()) })
}

// Serve accepts connections from l until the listener or server closes.
func (s *Server) Serve(l *netsim.Listener) {
	for {
		conn, err := l.Accept()
		if err != nil {
			return
		}
		s.connWG.Add(1)
		go func() {
			defer s.connWG.Done()
			s.ServeConn(conn)
		}()
	}
}

// ServeConn reads frames from one connection until it fails or the server
// closes. The connection is closed once its last reply has been delivered.
//
//redbud:hotpath
func (s *Server) ServeConn(conn netsim.Conn) {
	out := &replyPath{conn: conn, owed: make(chan owed, replyQueueCap), replies: make(chan reply, replyQueueCap), wire: make(chan posted, replyQueueCap)}
	out.refs.Store(1)
	go s.completeReplies(out)
	go s.writeReplies(out)
	go s.deliverReplies(out)
	defer out.release()
	for {
		frame, arr, err := netsim.RecvAt(conn)
		if err != nil {
			// Nothing more can be exchanged; replies still owed fail fast.
			conn.Close()
			return
		}
		var r wire.Reader
		r.Reset(frame)
		msgID := r.U64()
		kind := r.U8()
		op := r.U16()
		if r.Err() != nil || kind != kindRequest {
			wire.PutFrame(frame)
			continue // drop malformed frame
		}
		body := frame[len(frame)-r.Remaining():]
		c := call{out: out, msgID: msgID, op: op, body: body, frame: frame, arr: arr}
		if s.cfg.Tracer.Enabled() {
			c.enq = s.clk.Now()
		}
		out.refs.Add(1)
		select {
		case s.queue <- c:
		case <-s.done:
			s.drop(c)
			return
		}
		// The enqueue can win the select after Close has closed done,
		// seen the daemons out and emptied the queue; nobody would ever
		// take the call, and its reference would keep the connection open.
		select {
		case <-s.done:
			s.dropQueued()
			return
		default:
		}
	}
}

// drop discards a call that will never be processed.
func (s *Server) drop(c call) {
	wire.PutFrame(c.frame)
	c.out.release()
}

// dropQueued discards every queued call.
func (s *Server) dropQueued() {
	for {
		select {
		case c := <-s.queue:
			s.drop(c)
		default:
			return
		}
	}
}

// daemon is one worker of the pool.
func (s *Server) daemon(i int) {
	defer s.wg.Done()
	track := s.tracks[i]
	var free time.Time // modeled instant this daemon became free
	for {
		select {
		case c := <-s.queue:
			s.inflight.Add(1)
			var deq time.Time
			traced := s.cfg.Tracer.Enabled() && !c.enq.IsZero()
			if traced {
				deq = s.clk.Now()
				s.cfg.Tracer.Record(track, obs.SpanRPCQueue, 0, c.enq, deq)
			}
			var r reply
			var o *owed
			r, o, free = s.process(c, i, s.begin(free, c.arr))
			var freed time.Time
			if traced {
				freed = s.clk.Now()
				s.cfg.Tracer.Record(track, obs.SpanRPCProcess, 0, deq, freed)
			}
			if o != nil {
				o.applied = freed
				s.owe(c.out, *o)
			} else {
				r.handoff = freed
				s.handOff(c.out, r)
			}
		case <-s.done:
			return
		}
	}
}

// handOff passes a finished frame to its connection's reply writer and frees
// the daemon. It blocks only when the connection's reply queue is full.
//
//redbud:hotpath
func (s *Server) handOff(out *replyPath, r reply) {
	s.inflight.Add(-1)
	s.unsent.Add(1)
	s.replyBacklog.Add(1)
	// Ownership handoff: from here the writer is the only holder of the
	// payload and of the request frame it may alias.
	out.replies <- r
	out.release()
}

// owe passes an applied frame to its connection's completion stage and frees
// the daemon. It blocks only when the connection's completion queue is full.
func (s *Server) owe(out *replyPath, o owed) {
	s.inflight.Add(-1)
	s.unsent.Add(1)
	s.owedBacklog.Add(1)
	out.owed <- o
	out.release()
}

// begin returns the modeled instant a daemon free since free starts a frame
// that arrived at arr: the later of the two, so never before the frame
// arrived. A frame whose transport reports no arrival starts now. The zero
// time means the server charges nothing and reads no clock.
func (s *Server) begin(free, arr time.Time) time.Time {
	if s.cfg.FrameCost <= 0 && s.opCost() <= 0 {
		return time.Time{}
	}
	if arr.IsZero() {
		arr = s.clk.Now()
	}
	if free.After(arr) {
		return free
	}
	return arr
}

// process applies one call — every sub-operation in frame order — and
// returns its encoded reply, or, when a handler left a completion Pending,
// the applied frame the completion stage still owes a reply. It owns
// c.frame, which travels on with the reply because the payload may alias it.
// The frame's charge starts at dl (see begin): FrameCost extends it, and the
// daemon sleeps to it before decoding. process returns the deadline the frame
// ended at, the instant the daemon became free in modeled time, which is also
// the earliest instant its reply leaves.
//
//redbud:hotpath
func (s *Server) process(c call, worker int, dl time.Time) (reply, *owed, time.Time) {
	if !dl.IsZero() {
		dl = dl.Add(s.cfg.FrameCost)
		s.sleepUntil(dl)
	}
	// A single operation, or a compound that fails to decode, is a frame of
	// one result.
	var one [1]SubResult
	if c.op == OpCompound {
		ops, err := decodeCompound(c.body)
		if err != nil {
			one[0].Err = err
			return s.finish(c, worker, one[:], false, dl), nil, dl
		}
		results := make([]SubResult, len(ops))
		pending, end := s.run(ops, results, dl)
		if pending {
			return reply{}, &owed{c: c, results: results, worker: worker, end: end}, end
		}
		return s.finish(c, worker, results, true, end), nil, end
	}
	ops := [1]SubOp{{Op: c.op, Body: c.body}}
	pending, end := s.run(ops[:], one[:], dl)
	if pending {
		return reply{}, &owed{c: c, results: []SubResult{one[0]}, worker: worker, end: end}, end
	}
	return s.finish(c, worker, one[:], false, end), nil, end
}

// finish encodes the reply to a frame whose results are all final, to leave
// at the modeled instant at.
//
//redbud:hotpath
func (s *Server) finish(c call, worker int, results []SubResult, compound bool, at time.Time) reply {
	var payload []byte
	var status uint16
	var errMsg string
	if compound {
		payload = encodeCompoundReply(results)
	} else if err := results[0].Err; err != nil {
		status, errMsg = 1, err.Error()
	} else {
		payload = results[0].Body
	}
	s.processed.Inc()

	// Gather-write framing: the 12-byte response header plus the length
	// prefix go in a pooled buffer, the payload rides as the second
	// segment — one copy into the (pooled) network frame, no
	// concatenation.
	b := wire.GetBuffer()
	b.PutU64(c.msgID)
	b.PutU8(kindResponse)
	b.PutU16(status)
	b.PutU8(s.Load())
	if status != 0 {
		b.PutString(errMsg)
		payload = nil
	} else {
		b.PutU32(uint32(len(payload)))
	}
	return reply{hdr: b, payload: payload, frame: c.frame, at: at, worker: worker}
}

// run applies the operations of one frame into results, charging and
// applying each in frame order, so two operations of one frame take effect in
// the order the client wrote them. It reports whether any handler left its
// completion Pending. Such an operation has handed its record to the journal
// by then, so the waits of a compound overlap and its records share
// group-commit batches. Each operation's cost extends the deadline dl, and
// the daemon sleeps to it before the handler, which is told it; run returns
// the deadline the last handler ended at.
//
//redbud:hotpath
func (s *Server) run(ops []SubOp, results []SubResult, dl time.Time) (pending bool, end time.Time) {
	cost := s.opCost()
	for i, o := range ops {
		var woke time.Time
		if !dl.IsZero() {
			dl = dl.Add(cost)
			woke = s.sleepUntil(dl)
		}
		results[i].Body, results[i].Err = s.handler(dl, o.Op, o.Body)
		if !dl.IsZero() {
			// The handler's own time moves the deadline, so a modeled
			// wait inside it (a delegation recall) is charged in full;
			// only the lateness of the wakeup is made up.
			dl = dl.Add(s.clk.Since(woke))
		}
		s.subOps.Inc()
		if _, ok := results[i].Err.(Pending); ok {
			pending = true
		}
	}
	return pending, dl
}

// completeReplies is a connection's completion stage: it runs the Pending
// completions of each applied frame, in frame order, and hands the finished
// frame to the writer, in the order the daemons applied them. Waiting one
// frame at a time costs nothing: the journal makes records durable in log
// order, and a daemon appended every record of a frame before handing it on.
// The reply leaves at the later of the frame's modeled end and the latest
// instant one of its completions became durable.
func (s *Server) completeReplies(p *replyPath) {
	for o := range p.owed {
		at := o.end
		for i := range o.results {
			if complete, ok := o.results[i].Err.(Pending); ok {
				var durable time.Time
				o.results[i].Body, durable, o.results[i].Err = complete()
				if durable.After(at) {
					at = durable
				}
			}
		}
		r := s.finish(o.c, o.worker, o.results, o.c.op == OpCompound, at)
		if !o.applied.IsZero() {
			r.handoff = s.clk.Now()
			s.cfg.Tracer.Record(s.tracks[o.worker], obs.SpanRPCComplete, 0, o.applied, r.handoff)
		}
		s.owedBacklog.Add(-1)
		s.replyBacklog.Add(1)
		p.replies <- r
	}
	close(p.replies)
}

// sleepUntil sleeps to the deadline dl, counting how far past it the daemon
// woke, and returns the current instant. It returns at once when dl has
// passed.
func (s *Server) sleepUntil(dl time.Time) time.Time {
	now := s.clk.Now()
	if d := dl.Sub(now); d > 0 {
		s.clk.Sleep(d)
		now = s.clk.Now()
		if late := now.Sub(dl); late > 0 {
			s.late.Add(int64(late))
		}
	}
	return now
}

// writeReplies is a connection's reply writer: it puts finished frames on
// the wire in hand-off order, each sent from its modeled instant, and counts
// how far past it the writer got to it. A failed send means the connection
// died; the client will see its own error.
//
//redbud:hotpath
func (s *Server) writeReplies(p *replyPath) {
	for r := range p.replies {
		if !r.at.IsZero() {
			if late := s.clk.Since(r.at); late > 0 {
				s.absorbed.Add(int64(late))
			}
		}
		fl, _ := netsim.PostVec(p.conn, r.at, r.hdr.Bytes(), r.payload)
		wire.PutBuffer(r.hdr)
		// The payload may alias the request frame (echo-style handlers);
		// it is dead once the post copied it out.
		wire.PutFrame(r.frame)
		p.wire <- posted{fl: fl, handoff: r.handoff, worker: r.worker}
	}
	close(p.wire)
}

// deliverReplies waits out the modeled transmission of each posted reply in
// turn. Arrival times on one link only grow, so a reply posted while an
// earlier one is still in flight is not held up by it.
//
//redbud:hotpath
func (s *Server) deliverReplies(p *replyPath) {
	for x := range p.wire {
		_ = x.fl.Arrive()
		if !x.handoff.IsZero() {
			s.cfg.Tracer.Record(s.tracks[x.worker], obs.SpanRPCReply, 0, x.handoff, s.clk.Now())
		}
		s.replyBacklog.Add(-1)
		s.unsent.Done()
	}
	p.conn.Close()
}

// Close stops the daemon pool. In-flight operations finish and their replies
// are delivered; queued ones are dropped.
func (s *Server) Close() {
	s.once.Do(func() { close(s.done) })
	s.wg.Wait()
	s.dropQueued()
	s.unsent.Wait()
}

// ---------------------------------------------------------------------------
// Client

// pendingCall tracks one outstanding request. Instances are pooled: a call
// is owned either by exactly one shard map entry or by the goroutine that
// removed it, so each use sees at most one channel send.
type pendingCall struct {
	ch chan response
}

var callPool = sync.Pool{New: func() any { return &pendingCall{ch: make(chan response, 1)} }}

type response struct {
	status  uint16
	busy    uint8
	payload []byte // aliases frame when non-nil
	frame   []byte // pooled receive buffer, handed to the waiter
	err     error
}

// pendingShards is the number of pending-table shards. Message IDs are
// sequential, so concurrent calls spread evenly.
const pendingShards = 16

type pendingShard struct {
	mu      sync.Mutex
	pending map[uint64]*pendingCall
	_       [32]byte // avoid false sharing between adjacent shards
}

// Client issues concurrent RPCs over one connection. The pending table is
// sharded by message ID so concurrent callers don't serialize on one mutex,
// and frame buffers and call handles are pooled, keeping the per-call
// allocation count flat under load.
type Client struct {
	conn netsim.Conn
	clk  clock.Clock

	shards [pendingShards]pendingShard
	closed atomic.Bool
	// closeErr is set (under every shard lock) before closed, so readers
	// that observe closed see the cause.
	closeErr error

	nextID    atomic.Uint64
	busy      atomic.Uint32 // last piggybacked server load
	rttNs     atomic.Int64  // EWMA of call round-trip, nanoseconds
	badFrames atomic.Int64  // malformed response frames received
	timeoutNs atomic.Int64  // per-call timeout; 0 = wait forever

	calls stats.Counter
}

// NewClient wraps conn and starts the response reader.
func NewClient(conn netsim.Conn, clk clock.Clock) *Client {
	if clk == nil {
		clk = clock.Real(1)
	}
	c := &Client{conn: conn, clk: clk}
	for i := range c.shards {
		c.shards[i].pending = make(map[uint64]*pendingCall)
	}
	go c.readLoop()
	return c
}

func (c *Client) shard(id uint64) *pendingShard { return &c.shards[id%pendingShards] }

// register installs p in the pending table, refusing if the client closed.
func (c *Client) register(id uint64, p *pendingCall) error {
	sh := c.shard(id)
	sh.mu.Lock()
	if c.closed.Load() {
		cause := c.closeErr
		sh.mu.Unlock()
		if cause != nil {
			// Keep the connection-death cause visible so callers can
			// distinguish a dead transport from a deliberate Close.
			return fmt.Errorf("%w: %w", ErrClientClosed, cause)
		}
		return ErrClientClosed
	}
	sh.pending[id] = p
	sh.mu.Unlock()
	return nil
}

// take removes and returns the pending call for id, or nil if another
// goroutine (a response or failAll) already owns it.
func (c *Client) take(id uint64) *pendingCall {
	sh := c.shard(id)
	sh.mu.Lock()
	p := sh.pending[id]
	delete(sh.pending, id)
	sh.mu.Unlock()
	return p
}

//redbud:hotpath
func (c *Client) readLoop() {
	var r wire.Reader
	for {
		frame, err := c.conn.Recv()
		if err != nil {
			//lint:allow hotpath — connection-teardown path, never taken at steady state
			c.failAll(fmt.Errorf("%w: %v", ErrConnClosed, err))
			return
		}
		r.Reset(frame)
		msgID := r.U64()
		kind := r.U8()
		status := r.U16()
		busy := r.U8()
		if r.Err() != nil || kind != kindResponse {
			// A frame too short for the response header, or of the
			// wrong kind. Don't drop it on the floor: the caller
			// whose ID it carries (if any) would otherwise hang
			// until the connection dies. Fail that call and count
			// the frame so the condition is observable.
			c.badFrames.Add(1)
			if p := c.take(msgID); p != nil {
				//lint:allow hotpath — malformed-frame error path, never taken at steady state
				p.ch <- response{err: fmt.Errorf("%w: %d-byte response frame, kind %d", ErrBadFrame, len(frame), kind)}
			}
			wire.PutFrame(frame)
			continue
		}
		c.busy.Store(uint32(busy))
		var resp response
		resp.status = status
		resp.busy = busy
		if status != 0 {
			resp.err = &RemoteError{Message: r.String()}
		} else {
			// The frame is owned by this loop and handed to exactly
			// one waiter, so the payload may alias it.
			resp.payload = r.BytesRef()
		}
		if err := r.Err(); err != nil {
			c.badFrames.Add(1)
			//lint:allow hotpath — malformed-frame error path, never taken at steady state
			resp.err = fmt.Errorf("%w: %v", ErrBadFrame, err)
			resp.payload = nil
		}
		if resp.payload != nil {
			// The waiter owns the frame from here: it recycles it
			// after decoding (Call/Compound) or pins it for as long
			// as the reply is referenced (CallRaw).
			resp.frame = frame
		} else {
			// Error responses copy everything they keep (the remote
			// message string); the frame is already dead.
			wire.PutFrame(frame)
		}
		if p := c.take(msgID); p != nil {
			//lint:allow wirealias — deliberate ownership handoff: exactly one waiter receives the frame-aliasing payload and recycles the frame
			p.ch <- resp
		} else if resp.frame != nil {
			// Late response for a timed-out or failed call: no waiter
			// will ever see it.
			wire.PutFrame(frame)
		}
	}
}

// failAll aborts every pending call with err and marks the client closed.
func (c *Client) failAll(err error) {
	// Lock every shard, publish the cause, then mark closed: register
	// checks closed under its shard lock, so once the flag is visible no
	// new call can slip into a shard this loop already drained.
	for i := range c.shards {
		c.shards[i].mu.Lock()
	}
	c.closeErr = err
	c.closed.Store(true)
	var pend []*pendingCall
	for i := range c.shards {
		sh := &c.shards[i]
		for _, p := range sh.pending {
			pend = append(pend, p)
		}
		sh.pending = make(map[uint64]*pendingCall)
		sh.mu.Unlock()
	}
	for _, p := range pend {
		p.ch <- response{err: err}
	}
}

// BadFrames returns the number of malformed response frames received.
func (c *Client) BadFrames() int64 { return c.badFrames.Load() }

// SetCallTimeout bounds how long each subsequent call waits for its
// response (0 restores waiting forever). A timed-out call returns an error
// wrapping ErrTimeout; whether the server executed it is unknown, so only
// idempotent requests should be retried.
func (c *Client) SetCallTimeout(d time.Duration) { c.timeoutNs.Store(int64(d)) }

// CallRaw issues op with an already-encoded body and returns the raw reply.
// The reply slice may alias the client's receive buffer for that call; it is
// owned by the caller and stays valid indefinitely (the buffer is pinned,
// not recycled), but callers needing to mutate it should copy. Hot paths
// should prefer Call or Compound, which return the receive buffer to the
// frame pool after decoding.
func (c *Client) CallRaw(op uint16, body []byte) ([]byte, error) {
	payload, _, err := c.call(op, body)
	return payload, err
}

// call issues op and returns the reply payload together with the pooled
// receive frame backing it. The caller owns the frame: it must either
// wire.PutFrame it once done with the payload, or let it be garbage
// collected if the payload escapes. On error the frame is already released.
//
//redbud:hotpath
func (c *Client) call(op uint16, body []byte) (payload, frame []byte, err error) {
	id := c.nextID.Add(1)
	p := callPool.Get().(*pendingCall)
	if err := c.register(id, p); err != nil {
		callPool.Put(p)
		return nil, nil, err
	}

	// Gather-write framing: the 11-byte request header goes in a pooled
	// buffer and the body rides as the second segment, so the body is
	// copied exactly once — into the pooled network frame.
	b := wire.GetBuffer()
	b.PutU64(id)
	b.PutU8(kindRequest)
	b.PutU16(op)

	start := c.clk.Now()
	err = netsim.SendVec(c.conn, b.Bytes(), body)
	wire.PutBuffer(b)
	if err != nil {
		// A transport that cannot carry the request is as dead as one
		// whose read side failed: surface the same sentinel.
		//lint:allow hotpath — send-failure path, never taken at steady state
		err = fmt.Errorf("%w: send: %v", ErrConnClosed, err)
		if c.take(id) != nil {
			// We removed the call ourselves; nothing can send on it.
			callPool.Put(p)
			return nil, nil, err
		}
		// A racing response or failAll owns the call and will send
		// exactly once; drain before recycling.
		resp := <-p.ch
		wire.PutFrame(resp.frame)
		callPool.Put(p)
		return nil, nil, err
	}
	var resp response
	if d := time.Duration(c.timeoutNs.Load()); d > 0 {
		select {
		case resp = <-p.ch:
		case <-c.clk.After(d):
			if c.take(id) != nil {
				// We own the call again: no response can reach it, so
				// the handle is safe to recycle. A late response for
				// this ID will find no pending entry and be recycled by
				// the read loop.
				callPool.Put(p)
				//lint:allow hotpath — timeout path, never taken at steady state
				return nil, nil, fmt.Errorf("%w: op %d after %v", ErrTimeout, op, d)
			}
			// A response or failAll won the race; its send is imminent.
			resp = <-p.ch
		}
	} else {
		resp = <-p.ch
	}
	callPool.Put(p)
	c.observeRTT(c.clk.Since(start))
	c.calls.Inc()
	if resp.err != nil {
		wire.PutFrame(resp.frame)
		return nil, nil, resp.err
	}
	return resp.payload, resp.frame, nil
}

// Call issues op, encoding req and decoding the reply into resp. Either may
// be nil for empty bodies. Request and response buffers are pooled: the
// steady-state call path performs no heap allocation of its own.
//
//redbud:hotpath
func (c *Client) Call(op uint16, req wire.Marshaler, resp wire.Unmarshaler) error {
	var body []byte
	var eb *wire.Buffer
	if req != nil {
		eb = wire.GetBuffer()
		req.MarshalWire(eb)
		body = eb.Bytes()
	}
	payload, frame, err := c.call(op, body)
	if eb != nil {
		// The transport copied the body into its own frame before the
		// call round-tripped; the encode buffer is long dead.
		wire.PutBuffer(eb)
	}
	if err != nil {
		return err
	}
	if resp != nil {
		// Response decoders must copy everything they keep (wire strings
		// and Bytes are copies): the frame is recycled as soon as Decode
		// returns. The wirealias analyzer enforces this; the only zero-copy
		// BytesRef decoders in the tree are server-side request messages,
		// whose pooled frame outlives the handler instead.
		err = wire.Decode(payload, resp)
	}
	wire.PutFrame(frame)
	return err
}

// Compound sends the sub-operations as a single network frame and returns
// per-operation results in order.
//
//redbud:hotpath
func (c *Client) Compound(ops []SubOp) ([]SubResult, error) {
	if len(ops) == 0 {
		return nil, nil
	}
	b := wire.GetBuffer()
	b.PutU16(uint16(len(ops)))
	for _, o := range ops {
		b.PutU16(o.Op)
		b.PutBytes(o.Body)
	}
	payload, frame, err := c.call(OpCompound, b.Bytes())
	wire.PutBuffer(b)
	if err != nil {
		return nil, err
	}
	// decodeCompoundReply copies every body and error string out of the
	// frame, so it can be recycled immediately after.
	results, err := decodeCompoundReply(payload, ops)
	wire.PutFrame(frame)
	return results, err
}

// observeRTT folds one sample into the RTT EWMA (alpha = 1/8).
func (c *Client) observeRTT(d time.Duration) {
	for {
		old := c.rttNs.Load()
		nw := old + (int64(d)-old)/8
		if old == 0 {
			nw = int64(d)
		}
		if c.rttNs.CompareAndSwap(old, nw) {
			return
		}
	}
}

// MeanRTT returns the smoothed round-trip time of recent calls.
func (c *Client) MeanRTT() time.Duration { return time.Duration(c.rttNs.Load()) }

// ServerLoad returns the most recent piggybacked server-load byte.
func (c *Client) ServerLoad() uint8 { return uint8(c.busy.Load()) }

// Calls returns the number of completed RPCs.
func (c *Client) Calls() int64 { return c.calls.Load() }

// RegisterMetrics exposes the client-side call counters in a metrics
// registry.
func (c *Client) RegisterMetrics(r *obs.Registry, labels obs.Labels) {
	if r == nil {
		return
	}
	r.CounterFunc("redbud_rpc_client_calls_total", "RPCs completed by this client connection", labels, c.calls.Load)
	r.CounterFunc("redbud_rpc_client_bad_frames_total", "malformed response frames received", labels, c.badFrames.Load)
	r.GaugeFunc("redbud_rpc_client_rtt_ns", "smoothed call round-trip time in nanoseconds", labels, c.rttNs.Load)
}

// Close tears down the connection, failing outstanding calls.
func (c *Client) Close() error { return c.conn.Close() }
