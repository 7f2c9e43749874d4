// Package netsim models the cluster's metadata Ethernet. Each host owns an
// ingress link with finite bandwidth, a fixed per-message overhead and a
// propagation delay; senders queue on the destination's ingress link, which
// is what makes a flood of small RPCs congest the MDS — the effect the
// paper's adaptive RPC compound technique attacks (k requests in one RPC pay
// the per-message overhead once).
//
// The same frame-oriented Conn interface is implemented over real TCP by
// FrameConn, so the RPC layer and everything above it run unchanged in the
// real cmd/redbud-mds deployment.
package netsim

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"redbud/internal/clock"
	"redbud/internal/obs"
	"redbud/internal/stats"
	"redbud/internal/wire"
)

// Errors returned by connections and the fabric.
var (
	ErrClosed      = errors.New("netsim: connection closed")
	ErrUnknownHost = errors.New("netsim: unknown host")
	ErrFrameSize   = errors.New("netsim: frame exceeds limit")
)

// maxFrame caps a single frame (64 MiB), shared by simulated and TCP conns.
const maxFrame = 64 << 20

// Conn is a frame-oriented, bidirectional, message-preserving connection.
// Send and Recv are each safe for concurrent use.
//
// Frames returned by Recv are backed by wire.GetFrame buffers: the final
// consumer may hand them back with wire.PutFrame once decoded, closing the
// messaging path's allocation loop. Consumers that keep a frame simply must
// not return it.
type Conn interface {
	// Send transmits one frame, blocking for its simulated transmission
	// time (plus any queueing on the destination's ingress link).
	Send(frame []byte) error
	// Recv blocks for the next frame. Returns io.EOF after Close.
	Recv() ([]byte, error)
	// Close tears down both directions.
	Close() error
}

// VectorConn is implemented by connections that can gather a frame header
// and payload into one frame without an intermediate concatenation — the
// zero-copy seam the RPC framing hot path uses.
type VectorConn interface {
	// SendVec transmits hdr followed by payload as a single frame.
	// Either segment may be empty.
	SendVec(hdr, payload []byte) error
}

// Poster is implemented by connections whose Send has two halves a sender
// can overlap: putting a frame on the wire, which occupies the link, and the
// frame's arrival one propagation delay later. Send and SendVec do both and
// hold their caller until the frame has arrived; a sender that must keep
// several frames in flight from one goroutine — the RPC server's
// per-connection reply path — posts each frame and waits for arrivals
// elsewhere.
type Poster interface {
	// PostVec gathers hdr+payload into one frame, reserves the frame's slot
	// on the destination's ingress link and returns without blocking. The
	// frame reaches the peer when Arrive is called on the result. at is the
	// modeled instant the frame was sent: the slot starts at the later of at
	// and the instant the link became free, so a sender whose goroutine woke
	// late does not pass its lateness on. The zero time, or one after now,
	// means now.
	PostVec(at time.Time, hdr, payload []byte) (InFlight, error)
}

// TimedReceiver is implemented by connections that know when each frame
// arrived in modeled time. A server that charges modeled work against a
// deadline starts it at the frame's arrival, not at the instant its reader
// goroutine happened to wake.
type TimedReceiver interface {
	// RecvAt is Recv that also returns the frame's modeled arrival time,
	// or the zero time when the connection cannot say.
	RecvAt() ([]byte, time.Time, error)
}

// RecvAt receives one frame from c with its modeled arrival time. The time
// is zero for connections without a model of it (TCP), on instant links and
// for a frame a reorder fault parked.
//
//redbud:hotpath
func RecvAt(c Conn) ([]byte, time.Time, error) {
	if tr, ok := c.(TimedReceiver); ok {
		return tr.RecvAt()
	}
	f, err := c.Recv()
	return f, time.Time{}, err
}

// InFlight is a frame that has been posted but has not arrived yet. The zero
// value is a frame that already arrived.
type InFlight struct {
	c  *simConn
	f  []byte    // pooled frame, owned until Arrive hands it to the peer
	d  Decision  // the fault plan's verdict, taken when the frame was posted
	at time.Time // modeled arrival time; zero on an instant link
}

// PostVec posts hdr+payload as one frame on c, sent at the modeled instant at
// (see Poster). Connections that cannot split a send (TCP: the kernel's
// socket buffer already is the wire) transmit here and return a frame that
// has arrived.
//
//redbud:hotpath
func PostVec(c Conn, at time.Time, hdr, payload []byte) (InFlight, error) {
	if p, ok := c.(Poster); ok {
		return p.PostVec(at, hdr, payload)
	}
	return InFlight{}, SendVec(c, hdr, payload)
}

// SendVec transmits hdr+payload as one frame, gathering the segments
// directly when c supports it and falling back to a pooled concatenation
// otherwise.
//
//redbud:hotpath
func SendVec(c Conn, hdr, payload []byte) error {
	if vc, ok := c.(VectorConn); ok {
		return vc.SendVec(hdr, payload)
	}
	f := wire.GetFrame(len(hdr) + len(payload))
	copy(f, hdr)
	copy(f[len(hdr):], payload)
	err := c.Send(f)
	wire.PutFrame(f)
	return err
}

// LinkConfig describes one host's ingress link.
type LinkConfig struct {
	// BandwidthMbps is the link rate in megabits per second.
	BandwidthMbps float64
	// Latency is the one-way propagation delay.
	Latency time.Duration
	// PerMessage is the fixed protocol/interrupt overhead per frame —
	// the term that RPC compounding amortizes.
	PerMessage time.Duration
}

// GigabitEthernet matches the paper's 1000 Mbps metadata network.
func GigabitEthernet() LinkConfig {
	return LinkConfig{BandwidthMbps: 1000, Latency: 50 * time.Microsecond, PerMessage: 30 * time.Microsecond}
}

// Instant is a free network for functional tests.
func Instant() LinkConfig { return LinkConfig{} }

// transmitTime returns the serialization time of n bytes on the link.
func (c LinkConfig) transmitTime(n int) time.Duration {
	if c.BandwidthMbps <= 0 || n <= 0 {
		return 0
	}
	return time.Duration(float64(n) * 8 / (c.BandwidthMbps * 1e6) * float64(time.Second))
}

// link is one host's ingress queue, with virtual-time accounting.
type link struct {
	cfg   clock.Clock
	lc    LinkConfig
	track string // span track, "net/<host>"
	tr    *atomic.Pointer[obs.Tracer]

	mu       sync.Mutex
	nextFree time.Time
	waitEWMA time.Duration // recent queueing delay, the congestion signal

	bytes stats.Counter
	msgs  stats.Counter
}

// reserve books the next free slot of the link for an n-byte frame sent at
// the modeled instant at and returns the time the frame arrives at the host:
// queueing + serialization + propagation from at. The zero time, or one after
// now, sends now. The slot never starts before the link is free, so frames
// reserved one after another arrive in that order whenever each was sent.
// The zero result means the link is instant. It never blocks; whoever
// delivers the frame sleeps until the returned time.
func (l *link) reserve(at time.Time, n int) time.Time {
	l.msgs.Inc()
	l.bytes.Add(int64(n))
	if l.lc == (LinkConfig{}) {
		// Instant link: no clock reads, no spans — keeps functional tests free.
		return time.Time{}
	}
	if now := l.cfg.Now(); at.IsZero() || at.After(now) {
		at = now
	}
	dur := l.lc.PerMessage + l.lc.transmitTime(n)

	l.mu.Lock()
	start := at
	if l.nextFree.After(start) {
		start = l.nextFree
	}
	wait := start.Sub(at)
	l.nextFree = start.Add(dur)
	end := l.nextFree
	// EWMA with alpha = 1/8.
	l.waitEWMA += (wait - l.waitEWMA) / 8
	l.mu.Unlock()

	if t := l.tr.Load(); t.Enabled() {
		if wait > 0 {
			t.Record(l.track, obs.SpanNetWait, 0, at, start)
		}
		t.Record(l.track, obs.SpanNetXmit, 0, start, end)
	}
	return end.Add(l.lc.Latency)
}

// meanWait returns the smoothed recent queueing delay.
func (l *link) meanWait() time.Duration {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.waitEWMA
}

// Network is the simulated fabric connecting named hosts.
type Network struct {
	clk clock.Clock

	// inj holds the active fault plan, if any (see faults.go). It applies
	// to every established connection, so a plan installed mid-run takes
	// effect immediately.
	inj atomic.Pointer[injector]

	// tr is the active span tracer; links read it on every transmit, so
	// SetTracer takes effect immediately on existing links.
	tr atomic.Pointer[obs.Tracer]

	mu        sync.Mutex
	links     map[string]*link
	listeners map[string]*Listener
}

// SetTracer installs (or removes, with nil) the span tracer observing every
// link transmission: net.wait for ingress queueing, net.xmit for
// serialization, on track "net/<host>".
func (n *Network) SetTracer(t *obs.Tracer) { n.tr.Store(t) }

// NewNetwork returns an empty fabric using clk.
func NewNetwork(clk clock.Clock) *Network {
	if clk == nil {
		clk = clock.Real(1)
	}
	return &Network{clk: clk, links: make(map[string]*link), listeners: make(map[string]*Listener)}
}

// AddHost registers a host with the given ingress link.
func (n *Network) AddHost(name string, lc LinkConfig) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.links[name] = &link{cfg: n.clk, lc: lc, track: "net/" + name, tr: &n.tr}
}

// RegisterMetrics exposes per-host link counters and the network fault
// counters in a metrics registry. Hosts added after the call are not
// covered; register after topology setup.
func (n *Network) RegisterMetrics(r *obs.Registry) {
	if r == nil {
		return
	}
	n.mu.Lock()
	names := make([]string, 0, len(n.links))
	for name := range n.links {
		names = append(names, name)
	}
	links := make(map[string]*link, len(names))
	for _, name := range names {
		links[name] = n.links[name]
	}
	n.mu.Unlock()
	for _, name := range names {
		l := links[name]
		lb := obs.Labels{"host": name}
		r.CounterFunc("redbud_net_messages_total", "frames transmitted to the host's ingress link", lb, l.msgs.Load)
		r.CounterFunc("redbud_net_bytes_total", "bytes transmitted to the host's ingress link", lb, l.bytes.Load)
		r.GaugeFunc("redbud_net_wait_ns", "smoothed ingress queueing delay in nanoseconds", lb,
			func() int64 { return int64(l.meanWait()) })
	}
	r.CounterFunc("redbud_net_fault_dropped_total", "frames dropped by the fault injector", nil,
		func() int64 { return n.faultStats().Dropped })
	r.CounterFunc("redbud_net_fault_duplicated_total", "frames duplicated by the fault injector", nil,
		func() int64 { return n.faultStats().Duplicated })
	r.CounterFunc("redbud_net_fault_delayed_total", "frames delayed by the fault injector", nil,
		func() int64 { return n.faultStats().Delayed })
	r.CounterFunc("redbud_net_fault_reordered_total", "frames reordered by the fault injector", nil,
		func() int64 { return n.faultStats().Reordered })
	r.CounterFunc("redbud_net_fault_partitioned_total", "frames blocked by a partition", nil,
		func() int64 { return n.faultStats().Partitioned })
}

// CongestionWait returns the smoothed ingress queueing delay at a host — the
// signal the adaptive compound controller reads.
func (n *Network) CongestionWait(name string) time.Duration {
	n.mu.Lock()
	l := n.links[name]
	n.mu.Unlock()
	if l == nil {
		return 0
	}
	return l.meanWait()
}

// Listener accepts inbound connections for one host.
type Listener struct {
	host   string
	accept chan Conn
	done   chan struct{}
	once   sync.Once
}

// Listen registers (or replaces) the listener for host name. The host must
// have been added first.
func (n *Network) Listen(name string) (*Listener, error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.links[name] == nil {
		return nil, fmt.Errorf("%w: %q", ErrUnknownHost, name)
	}
	l := &Listener{host: name, accept: make(chan Conn, 64), done: make(chan struct{})}
	n.listeners[name] = l
	return l, nil
}

// Accept blocks for the next inbound connection, or returns io.EOF after
// Close.
func (l *Listener) Accept() (Conn, error) {
	select {
	case c := <-l.accept:
		return c, nil
	case <-l.done:
		return nil, io.EOF
	}
}

// Close stops the listener. Established connections are unaffected.
func (l *Listener) Close() error {
	l.once.Do(func() { close(l.done) })
	return nil
}

// Dial connects from one host to another's listener, returning the
// client-side connection half.
func (n *Network) Dial(from, to string) (Conn, error) {
	n.mu.Lock()
	src, dst := n.links[from], n.links[to]
	lis := n.listeners[to]
	n.mu.Unlock()
	if src == nil {
		return nil, fmt.Errorf("%w: %q", ErrUnknownHost, from)
	}
	if dst == nil {
		return nil, fmt.Errorf("%w: %q", ErrUnknownHost, to)
	}
	if lis == nil {
		return nil, fmt.Errorf("netsim: host %q is not listening", to)
	}
	client, server := newPair(n, from, to, src, dst)
	// Check done first: the accept channel is buffered, so a plain select
	// could enqueue into a closed listener.
	select {
	case <-lis.done:
		return nil, io.EOF
	default:
	}
	select {
	case lis.accept <- server:
		return client, nil
	case <-lis.done:
		return nil, io.EOF
	}
}

// simConn is one half of a simulated connection.
type simConn struct {
	net      *Network
	from, to string // host names, for fault-plan lookup
	ingress  *link  // destination's ingress link; Send pays its cost
	in       chan arrival
	peer     *simConn
	done     chan struct{}
	once     *sync.Once

	holdMu sync.Mutex
	held   []byte // frame parked by a reorder fault
}

// arrival is a delivered frame and its modeled arrival time, zero when
// unknown.
type arrival struct {
	f  []byte
	at time.Time
}

// newPair builds the two halves of a connection between hosts with ingress
// links src (client host) and dst (server host).
func newPair(n *Network, fromHost, toHost string, src, dst *link) (client, server *simConn) {
	done := make(chan struct{})
	once := &sync.Once{}
	client = &simConn{net: n, from: fromHost, to: toHost, ingress: dst, in: make(chan arrival, 1024), done: done, once: once}
	server = &simConn{net: n, from: toHost, to: fromHost, ingress: src, in: make(chan arrival, 1024), done: done, once: once}
	client.peer = server
	server.peer = client
	return client, server
}

//redbud:hotpath
func (c *simConn) Send(frame []byte) error {
	if len(frame) > maxFrame {
		//lint:allow hotpath — oversize-frame error path, never taken at steady state
		return fmt.Errorf("%w: %d bytes", ErrFrameSize, len(frame))
	}
	// Copy: the caller may reuse the buffer after Send returns. The copy
	// comes from the frame pool; the receiving RPC loop returns it.
	f := wire.GetFrame(len(frame))
	copy(f, frame)
	return arrive(c.post(time.Time{}, f))
}

// SendVec gathers hdr+payload into one pooled frame — a single copy with no
// intermediate concatenation buffer.
//
//redbud:hotpath
func (c *simConn) SendVec(hdr, payload []byte) error {
	return arrive(c.PostVec(time.Time{}, hdr, payload))
}

// arrive completes a blocking send: it waits out the frame just posted.
func arrive(fl InFlight, err error) error {
	if err != nil {
		return err
	}
	return fl.Arrive()
}

// PostVec implements Poster.
//
//redbud:hotpath
func (c *simConn) PostVec(at time.Time, hdr, payload []byte) (InFlight, error) {
	n := len(hdr) + len(payload)
	if n > maxFrame {
		//lint:allow hotpath — oversize-frame error path, never taken at steady state
		return InFlight{}, fmt.Errorf("%w: %d bytes", ErrFrameSize, n)
	}
	f := wire.GetFrame(n)
	copy(f, hdr)
	copy(f[len(hdr):], payload)
	return c.post(at, f)
}

// post puts f on the wire, sent at the modeled instant at, taking ownership:
// f must be a pooled frame the caller will not touch again. The fault plan
// decides the frame's fate and its slot on the ingress link is reserved;
// Arrive then either delivers f to the peer (whose consumer recycles it) or
// returns it to the pool.
//
//redbud:hotpath
func (c *simConn) post(at time.Time, f []byte) (InFlight, error) {
	select {
	case <-c.done:
		wire.PutFrame(f)
		return InFlight{}, ErrClosed
	default:
	}
	var d Decision
	if c.net != nil {
		if inj := c.net.inj.Load(); inj != nil {
			d = inj.decide(c.from, c.to, len(f))
		}
	}
	// The sender always pays transmission: a dropped frame was serialized
	// onto the wire and lost, not never sent.
	return InFlight{c: c, f: f, d: d, at: c.ingress.reserve(at, len(f))}, nil
}

// Arrive blocks until the frame's modeled arrival time and hands it to the
// peer, or carries out what the fault plan decided for it instead.
//
//redbud:hotpath
func (fl InFlight) Arrive() error {
	c, f, d := fl.c, fl.f, fl.d
	if c == nil {
		return nil
	}
	at := fl.at
	if clk := c.ingress.cfg; !at.IsZero() {
		clk.Sleep(at.Sub(clk.Now()))
	}
	if d.Delay > 0 {
		c.net.clk.Sleep(d.Delay)
		if !at.IsZero() {
			at = at.Add(d.Delay)
		}
	}
	if d.Drop {
		wire.PutFrame(f)
		return nil
	}
	if d.Hold {
		c.holdMu.Lock()
		if c.held == nil {
			c.held = f
			c.holdMu.Unlock()
			go c.flushHeldAfter(d.HoldFor)
			return nil
		}
		// Already holding one frame; deliver this one normally so at most
		// one frame per connection is ever parked.
		c.holdMu.Unlock()
	}
	// Take the duplicate's copy before handing f to the peer: once
	// delivered, the peer may decode and recycle f at any moment.
	var g []byte
	if d.Dup {
		g = wire.GetFrame(len(f))
		copy(g, f)
	}
	if err := c.deliver(f, at); err != nil {
		wire.PutFrame(f)
		if g != nil {
			wire.PutFrame(g)
		}
		return err
	}
	if g != nil {
		if err := c.deliver(g, at); err != nil {
			wire.PutFrame(g)
			return err
		}
	}
	c.flushHeld()
	return nil
}

func (c *simConn) deliver(f []byte, at time.Time) error {
	select {
	case c.peer.in <- arrival{f: f, at: at}:
		return nil
	case <-c.done:
		return ErrClosed
	}
}

// flushHeld delivers the parked reorder frame, if any.
func (c *simConn) flushHeld() {
	c.holdMu.Lock()
	h := c.held
	c.held = nil
	c.holdMu.Unlock()
	if h != nil {
		c.deliver(h, time.Time{})
	}
}

// flushHeldAfter bounds how long a reordered frame can wait for a successor
// frame on a quiet link.
func (c *simConn) flushHeldAfter(d time.Duration) {
	if d <= 0 {
		d = time.Millisecond
	}
	select {
	case <-c.net.clk.After(d):
		c.flushHeld()
	case <-c.done:
	}
}

func (c *simConn) Recv() ([]byte, error) {
	f, _, err := c.RecvAt()
	return f, err
}

// RecvAt implements TimedReceiver.
func (c *simConn) RecvAt() ([]byte, time.Time, error) {
	select {
	case a := <-c.in:
		return a.f, a.at, nil
	case <-c.done:
		// Drain anything already delivered before reporting EOF.
		select {
		case a := <-c.in:
			return a.f, a.at, nil
		default:
			return nil, time.Time{}, io.EOF
		}
	}
}

func (c *simConn) Close() error {
	c.once.Do(func() { close(c.done) })
	return nil
}

// tcpConn adapts a net.Conn (or net.Pipe end) to the frame interface with a
// u32 length prefix.
type tcpConn struct {
	c   net.Conn
	rmu sync.Mutex
	wmu sync.Mutex
	// SendVec scratch, guarded by wmu: the length-prefix bytes and the
	// gather-list backing array, kept on the conn so neither escapes per
	// call. WriteTo advances the slice header it is given, never the array.
	pfx  [4]byte
	vecs [3][]byte
}

// FrameConn wraps a stream connection in the frame-oriented Conn interface.
func FrameConn(c net.Conn) Conn { return &tcpConn{c: c} }

func (t *tcpConn) Send(frame []byte) error {
	if len(frame) > maxFrame {
		return fmt.Errorf("%w: %d bytes", ErrFrameSize, len(frame))
	}
	var hdr [4]byte
	binary.LittleEndian.PutUint32(hdr[:], uint32(len(frame)))
	t.wmu.Lock()
	defer t.wmu.Unlock()
	if _, err := t.c.Write(hdr[:]); err != nil {
		return err
	}
	_, err := t.c.Write(frame)
	return err
}

// SendVec writes the length prefix, header and payload as one gathered
// writev-style burst (net.Buffers uses writev on platforms that have it),
// avoiding both a concatenation buffer and extra syscalls.
func (t *tcpConn) SendVec(hdr, payload []byte) error {
	n := len(hdr) + len(payload)
	if n > maxFrame {
		return fmt.Errorf("%w: %d bytes", ErrFrameSize, n)
	}
	t.wmu.Lock()
	defer t.wmu.Unlock()
	binary.LittleEndian.PutUint32(t.pfx[:], uint32(n))
	bufs := net.Buffers(append(t.vecs[:0], t.pfx[:]))
	if len(hdr) > 0 {
		bufs = append(bufs, hdr)
	}
	if len(payload) > 0 {
		bufs = append(bufs, payload)
	}
	_, err := bufs.WriteTo(t.c)
	t.vecs = [3][]byte{} // drop the references; the array itself is reused
	return err
}

func (t *tcpConn) Recv() ([]byte, error) {
	t.rmu.Lock()
	defer t.rmu.Unlock()
	var hdr [4]byte
	if _, err := io.ReadFull(t.c, hdr[:]); err != nil {
		return nil, err
	}
	n := binary.LittleEndian.Uint32(hdr[:])
	if n > maxFrame {
		return nil, fmt.Errorf("%w: %d bytes", ErrFrameSize, n)
	}
	f := wire.GetFrame(int(n))
	if _, err := io.ReadFull(t.c, f); err != nil {
		wire.PutFrame(f)
		return nil, err
	}
	return f, nil
}

func (t *tcpConn) Close() error { return t.c.Close() }
