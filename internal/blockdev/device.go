package blockdev

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"redbud/internal/clock"
	"redbud/internal/obs"
	"redbud/internal/stats"
)

// Op is the direction of an I/O request.
type Op uint8

// Request directions.
const (
	OpRead Op = iota
	OpWrite
)

func (o Op) String() string {
	if o == OpRead {
		return "R"
	}
	return "W"
}

// Errors returned by device operations.
var (
	ErrClosed     = errors.New("blockdev: device closed")
	ErrCrashed    = errors.New("blockdev: device crashed")
	ErrOutOfRange = errors.New("blockdev: request outside device")
)

// Event is one dispatched (post-merge) I/O, the simulator's equivalent of a
// blktrace completion record.
type Event struct {
	T       time.Time // the dispatch's modeled completion time
	Dev     int       // device ID
	Op      Op
	Offset  int64 // bytes
	Length  int64 // bytes
	SeekLen int64 // absolute head movement to reach Offset; 0 = sequential
	Merged  int   // number of original requests absorbed into this dispatch
}

// TraceFunc receives every dispatched I/O. It is called from the device
// scheduler goroutine and must not block.
type TraceFunc func(Event)

// Config describes one simulated device.
type Config struct {
	ID    int
	Size  int64 // capacity in bytes
	Model DiskModel
	Clock clock.Clock
	// MaxMergedBytes caps the size of a merged dispatch; 0 means the
	// default of 1 MiB (the Linux elevator's default cap of the era).
	MaxMergedBytes int64
	// DisableMerge turns the elevator's request merging off (used by the
	// original-Redbud configuration ablation).
	DisableMerge bool
	// Trace, if non-nil, observes every dispatch.
	Trace TraceFunc
	// Tracer, if non-nil, records dev.queue / dev.seek / dev.xfer spans for
	// every dispatch on track "dev<ID>".
	Tracer *obs.Tracer
	// WriteFault, if non-nil, decides the fate of every write at completion
	// time (see faults.go). Also settable later via SetWriteFault.
	WriteFault WriteFaultFunc
}

// Stats aggregates device-level counters.
type Stats struct {
	Submitted   int64
	Dispatched  int64
	Merged      int64 // requests absorbed into another dispatch
	Seeks       int64 // dispatches requiring head movement
	SeekBytes   int64 // total absolute head movement
	BytesRead   int64
	BytesWrite  int64
	BusyTime    time.Duration
	QueueLen    int64 // instantaneous
	MeanLatency time.Duration
}

// MergeRatio returns merged/submitted — the fraction of submitted requests
// absorbed into another dispatch (Figure 4's metric).
func (s Stats) MergeRatio() float64 {
	if s.Submitted == 0 {
		return 0
	}
	return float64(s.Merged) / float64(s.Submitted)
}

// request is one caller-visible I/O.
type request struct {
	op   Op
	off  int64
	n    int64
	data []byte // write payload, the device's from submission on
	buf  []byte // read destination, len n, filled at completion
	done func(error)
	enq  time.Time
	err  error // the result, set before the request is finished
}

// ior is an elevator queue entry: one future dispatch, possibly covering
// several merged requests whose ranges are physically contiguous.
type ior struct {
	op   Op
	off  int64
	n    int64
	reqs []*request
}

// Device is a simulated block device with a single head and an elevator
// scheduler. All methods are safe for concurrent use.
type Device struct {
	cfg   Config
	clk   clock.Clock
	store *pageStore

	mu         sync.Mutex
	cond       *sync.Cond
	queue      []*ior
	head       int64
	closed     bool
	crashed    bool
	writeFault WriteFaultFunc

	durable intervalSet

	nFaults stats.Counter

	nSubmitted stats.Counter
	nDispatch  stats.Counter
	nMerged    stats.Counter
	nSeeks     stats.Counter
	seekBytes  stats.Counter
	bytesRead  stats.Counter
	bytesWrite stats.Counter
	busy       stats.DurationSum
	late       stats.Counter // ns the host woke past a dispatch's modeled end
	latency    stats.DurationSum
	queueLen   stats.Gauge

	baseMu sync.Mutex
	base   Stats // snapshot subtracted by Stats(); set by ResetStats

	track string // precomputed span track name, "dev<ID>"

	// Completion: the service loop and Crash hand finished requests to one
	// long-lived goroutine, which runs their callbacks in completion order.
	// A slow callback delays the callbacks behind it, never a dispatch.
	cmu      sync.Mutex
	ccond    *sync.Cond
	finished []*request // awaiting their callbacks, in completion order
	cstop    bool       // Close: the completion goroutine exits once finished is empty
	cgone    bool       // it has exited; finish runs callbacks on the caller

	schedDone, complDone chan struct{} // closed as each goroutine exits
}

// New creates a device and starts its scheduler.
func New(cfg Config) *Device {
	if cfg.Clock == nil {
		cfg.Clock = clock.Real(1)
	}
	if cfg.Size <= 0 {
		cfg.Size = 1 << 40 // 1 TiB default
	}
	if cfg.MaxMergedBytes <= 0 {
		cfg.MaxMergedBytes = 1 << 20
	}
	d := &Device{cfg: cfg, clk: cfg.Clock, store: newPageStore(), writeFault: cfg.WriteFault,
		track: fmt.Sprintf("dev%d", cfg.ID), schedDone: make(chan struct{}), complDone: make(chan struct{})}
	d.cond = sync.NewCond(&d.mu)
	d.ccond = sync.NewCond(&d.cmu)
	go d.scheduler()
	go d.completer()
	return d
}

// ID returns the device identifier.
func (d *Device) ID() int { return d.cfg.ID }

// Size returns the device capacity in bytes.
func (d *Device) Size() int64 { return d.cfg.Size }

// WriteAsync submits a write of p at off; done receives the result once the
// write is durable. The device owns p from the call on and may keep it as
// its stored data: the caller never writes to it again. done runs on the
// device's completion goroutine, or, for a write refused at submission (empty,
// out of range, device closed or crashed), on the caller's before WriteAsync
// returns. It must not block for long: it delays the device's later
// completions.
func (d *Device) WriteAsync(off int64, p []byte, done func(error)) {
	if len(p) == 0 {
		done(nil)
		return
	}
	if off < 0 || off+int64(len(p)) > d.cfg.Size {
		done(fmt.Errorf("%w: write [%d,%d) size %d", ErrOutOfRange, off, off+int64(len(p)), d.cfg.Size))
		return
	}
	d.submit(&request{op: OpWrite, off: off, n: int64(len(p)), data: p, done: done, enq: d.clk.Now()})
}

// Write submits a write and blocks until it is durable. Like WriteAsync, it
// takes ownership of p.
func (d *Device) Write(off int64, p []byte) error {
	ch := make(chan error, 1)
	d.WriteAsync(off, p, func(err error) { ch <- err })
	return <-ch
}

// ReadAsync submits a read of n bytes at off.
func (d *Device) ReadAsync(off, n int64) (<-chan error, []byte) {
	done := make(chan error, 1)
	buf := make([]byte, n)
	if n == 0 {
		done <- nil
		return done, buf
	}
	if off < 0 || n < 0 || off+n > d.cfg.Size {
		done <- fmt.Errorf("%w: read [%d,%d) size %d", ErrOutOfRange, off, off+n, d.cfg.Size)
		return done, buf
	}
	d.submit(&request{op: OpRead, off: off, n: n, buf: buf, done: func(err error) { done <- err }, enq: d.clk.Now()})
	return done, buf
}

// Read blocks until n bytes at off have been read.
func (d *Device) Read(off, n int64) ([]byte, error) {
	done, buf := d.ReadAsync(off, n)
	err := <-done
	return buf, err
}

// IsDurable reports whether every byte of [off, off+n) has been written by a
// completed write since the last crash. This is the hook the ordered-write
// invariant checks use.
func (d *Device) IsDurable(off, n int64) bool { return d.durable.contains(off, off+n) }

// submit enqueues a request, attempting an elevator merge against the queue.
func (d *Device) submit(r *request) {
	d.mu.Lock()
	if d.closed || d.crashed {
		err := ErrClosed
		if d.crashed {
			err = ErrCrashed
		}
		d.mu.Unlock()
		r.done(err)
		return
	}
	d.nSubmitted.Inc()
	if !d.cfg.DisableMerge && d.tryMerge(r) {
		d.nMerged.Inc()
		d.mu.Unlock()
		return
	}
	d.queue = append(d.queue, &ior{op: r.op, off: r.off, n: r.n, reqs: []*request{r}})
	d.queueLen.Set(int64(len(d.queue)))
	d.cond.Signal()
	d.mu.Unlock()
}

// tryMerge attempts a back- or front-merge of r into an existing queue entry.
// Caller holds d.mu.
func (d *Device) tryMerge(r *request) bool {
	for _, q := range d.queue {
		if q.op != r.op || q.n+r.n > d.cfg.MaxMergedBytes {
			continue
		}
		if r.off == q.off+q.n { // back merge
			q.n += r.n
			q.reqs = append(q.reqs, r)
			return true
		}
		if r.off+r.n == q.off { // front merge
			q.off = r.off
			q.n += r.n
			q.reqs = append(q.reqs, r)
			return true
		}
	}
	return false
}

// pickNext removes and returns the next queue entry: reads are served before
// writes (deadline-scheduler style — a synchronous reader must not starve
// behind a flood of asynchronous write-back), and within the chosen class
// C-LOOK picks the lowest offset at or beyond the head, wrapping to the
// lowest offset overall. Caller holds d.mu; queue must be non-empty.
func (d *Device) pickNext() *ior {
	class := OpWrite
	for _, q := range d.queue {
		if q.op == OpRead {
			class = OpRead
			break
		}
	}
	best, bestAny := -1, -1
	for i, q := range d.queue {
		if q.op != class {
			continue
		}
		if q.off >= d.head && (best == -1 || q.off < d.queue[best].off) {
			best = i
		}
		if bestAny == -1 || q.off < d.queue[bestAny].off {
			bestAny = i
		}
	}
	if best == -1 {
		best = bestAny
	}
	q := d.queue[best]
	d.queue = append(d.queue[:best], d.queue[best+1:]...)
	d.queueLen.Set(int64(len(d.queue)))
	return q
}

// scheduler is the device's single service loop. Service time is charged
// against a deadline built from modeled instants: a dispatch starts at the
// later of the instant the head became free and the arrival of the last
// request it carries, and ends st later. A host wakeup that comes late is
// absorbed by the next dispatch of a busy device instead of passed on to it,
// and an idle device banks no idle time.
func (d *Device) scheduler() {
	defer close(d.schedDone)
	var free time.Time // modeled instant the head became free
	for {
		d.mu.Lock()
		for len(d.queue) == 0 && !d.closed {
			d.cond.Wait()
		}
		if len(d.queue) == 0 && d.closed {
			d.mu.Unlock()
			return
		}
		q := d.pickNext()
		head := d.head
		d.head = q.off + q.n
		d.mu.Unlock()

		start := free
		for _, r := range q.reqs {
			if r.enq.After(start) {
				start = r.enq
			}
		}
		end := start.Add(d.cfg.Model.ServiceTime(head, q.off, q.n))
		if wait := end.Sub(d.clk.Now()); wait > 0 {
			d.clk.Sleep(wait)
			if late := d.clk.Since(end); late > 0 {
				d.late.Add(int64(late))
			}
		}
		free = end
		d.complete(q, head, start, end)
	}
}

// complete applies a dispatched entry to the store and finishes its requests.
// Requests merged into one dispatch can fail individually under an injected
// write fault, so completion errors are per-request. The dispatch's modeled
// window [start, end) stamps its trace, spans and latencies, whenever the
// host woke for it.
func (d *Device) complete(q *ior, head int64, start, end time.Time) {
	d.mu.Lock()
	crashed := d.crashed
	fault := d.writeFault
	d.mu.Unlock()

	if crashed {
		for _, r := range q.reqs {
			r.err = ErrCrashed
		}
	} else {
		for _, r := range q.reqs {
			if r.op != OpWrite {
				d.store.readAt(r.buf, r.off)
				d.bytesRead.Add(r.n)
				continue
			}
			if fault != nil {
				f, keep := fault(r.off, r.n)
				if f == WriteError || f == WriteTorn {
					d.nFaults.Inc()
					if f == WriteError {
						r.err = fmt.Errorf("%w: write [%d,%d)", ErrInjected, r.off, r.off+r.n)
						continue
					}
					// Torn: persist a strict prefix and record only it as
					// durable; the request's full range stays non-durable.
					if keep < 0 {
						keep = 0
					}
					if keep >= r.n {
						keep = r.n - 1
					}
					if keep > 0 {
						d.store.writeAt(r.data[:keep], r.off)
						d.durable.add(r.off, r.off+keep)
						d.bytesWrite.Add(keep)
					}
					r.err = fmt.Errorf("%w: torn write [%d,%d) kept %d bytes", ErrInjected, r.off, r.off+r.n, keep)
					continue
				}
			}
			d.store.writeAt(r.data, r.off)
			d.durable.add(r.off, r.off+r.n)
			d.bytesWrite.Add(r.n)
		}
	}

	d.nDispatch.Inc()
	d.busy.Observe(end.Sub(start))
	seek := q.off - head
	if seek < 0 {
		seek = -seek
	}
	if seek != 0 {
		d.nSeeks.Inc()
		d.seekBytes.Add(seek)
	}
	minEnq := q.reqs[0].enq
	for _, r := range q.reqs {
		d.latency.Observe(end.Sub(r.enq))
		if r.enq.Before(minEnq) {
			minEnq = r.enq
		}
	}
	d.finish(q.reqs)
	if d.cfg.Trace != nil && !crashed {
		d.cfg.Trace(Event{T: end, Dev: d.cfg.ID, Op: q.op, Offset: q.off, Length: q.n, SeekLen: seek, Merged: len(q.reqs) - 1})
	}
	if d.cfg.Tracer.Enabled() && !crashed {
		// The dispatch timeline from the service-time model: [start,
		// start+seek) positions the head, the remainder is controller
		// overhead + media transfer.
		seekT := d.cfg.Model.SeekTime(head, q.off)
		d.cfg.Tracer.Record(d.track, obs.SpanDevQueue, 0, minEnq, start)
		if seekT > 0 {
			d.cfg.Tracer.Record(d.track, obs.SpanDevSeek, 0, start, start.Add(seekT))
		}
		d.cfg.Tracer.Record(d.track, obs.SpanDevTransfer, 0, start.Add(seekT), end)
	}
}

// finish hands completed requests, their err set, to the completion
// goroutine, or runs their callbacks here once it has exited.
func (d *Device) finish(rs []*request) {
	d.cmu.Lock()
	if d.cgone {
		d.cmu.Unlock()
		for _, r := range rs {
			r.done(r.err)
		}
		return
	}
	d.finished = append(d.finished, rs...)
	d.ccond.Signal()
	d.cmu.Unlock()
}

// completer is the device's completion goroutine: it runs the callbacks of
// finished requests in the order they finished, off the service loop.
func (d *Device) completer() {
	defer close(d.complDone)
	var batch []*request
	for {
		d.cmu.Lock()
		for len(d.finished) == 0 && !d.cstop {
			d.ccond.Wait()
		}
		if len(d.finished) == 0 {
			d.cgone = true
			d.cmu.Unlock()
			return
		}
		// Swap the two slices, so neither grows a new array per batch.
		batch, d.finished = d.finished, batch[:0]
		d.cmu.Unlock()
		for i, r := range batch {
			r.done(r.err)
			batch[i] = nil
		}
	}
}

// Crash simulates a power failure: queued and future requests fail, and the
// durability record of in-flight writes is preserved only for completed ones.
// Data already durable survives (the store is "on disk").
func (d *Device) Crash() {
	d.mu.Lock()
	d.crashed = true
	q := d.queue
	d.queue = nil
	d.queueLen.Set(0)
	d.mu.Unlock()
	for _, e := range q {
		for _, r := range e.reqs {
			r.err = ErrCrashed
		}
		d.finish(e.reqs)
	}
}

// Recover clears the crashed state, making the device usable again. Durable
// data persists across Crash/Recover, as on a real disk.
func (d *Device) Recover() {
	d.mu.Lock()
	d.crashed = false
	d.mu.Unlock()
}

// Close shuts the device down after draining the queue: the service loop
// stops first, then the completion goroutine once it has run every callback.
func (d *Device) Close() {
	d.mu.Lock()
	if d.closed {
		d.mu.Unlock()
		return
	}
	d.closed = true
	d.cond.Broadcast()
	d.mu.Unlock()
	<-d.schedDone
	d.cmu.Lock()
	d.cstop = true
	d.ccond.Signal()
	d.cmu.Unlock()
	<-d.complDone
}

// rawStats reads the monotonic counters.
func (d *Device) rawStats() Stats {
	return Stats{
		Submitted:   d.nSubmitted.Load(),
		Dispatched:  d.nDispatch.Load(),
		Merged:      d.nMerged.Load(),
		Seeks:       d.nSeeks.Load(),
		SeekBytes:   d.seekBytes.Load(),
		BytesRead:   d.bytesRead.Load(),
		BytesWrite:  d.bytesWrite.Load(),
		BusyTime:    d.busy.Total(),
		QueueLen:    d.queueLen.Load(),
		MeanLatency: d.latency.Mean(),
	}
}

// Stats returns a snapshot of the device counters since the last ResetStats.
func (d *Device) Stats() Stats {
	s := d.rawStats()
	d.baseMu.Lock()
	b := d.base
	d.baseMu.Unlock()
	s.Submitted -= b.Submitted
	s.Dispatched -= b.Dispatched
	s.Merged -= b.Merged
	s.Seeks -= b.Seeks
	s.SeekBytes -= b.SeekBytes
	s.BytesRead -= b.BytesRead
	s.BytesWrite -= b.BytesWrite
	s.BusyTime -= b.BusyTime
	return s
}

// ResetStats zeroes the counters as seen through Stats. The experiment
// harness calls this between warm-up and the measured phase.
func (d *Device) ResetStats() {
	s := d.rawStats()
	d.baseMu.Lock()
	d.base = s
	d.baseMu.Unlock()
}

// RegisterMetrics exposes the device counters in a metrics registry, labeled
// by device ID. Raw monotonic values are exported (ResetStats does not
// affect them); rate consumers diff snapshots instead.
func (d *Device) RegisterMetrics(r *obs.Registry) {
	if r == nil {
		return
	}
	l := obs.Labels{"dev": fmt.Sprintf("%d", d.cfg.ID)}
	r.CounterFunc("redbud_dev_submitted_total", "I/O requests submitted", l, d.nSubmitted.Load)
	r.CounterFunc("redbud_dev_dispatched_total", "elevator dispatches issued", l, d.nDispatch.Load)
	r.CounterFunc("redbud_dev_merged_total", "requests absorbed by elevator merging", l, d.nMerged.Load)
	r.CounterFunc("redbud_dev_seeks_total", "dispatches requiring head movement", l, d.nSeeks.Load)
	r.CounterFunc("redbud_dev_seek_bytes_total", "total absolute head movement in bytes", l, d.seekBytes.Load)
	r.CounterFunc("redbud_dev_read_bytes_total", "bytes read from media", l, d.bytesRead.Load)
	r.CounterFunc("redbud_dev_written_bytes_total", "bytes written to media", l, d.bytesWrite.Load)
	r.CounterFunc("redbud_dev_injected_faults_total", "injected write faults fired", l, d.nFaults.Load)
	r.CounterFunc("redbud_dev_busy_ns_total", "cumulative head busy time in nanoseconds", l,
		func() int64 { return int64(d.busy.Total()) })
	r.CounterFunc("redbud_dev_late_ns_total", "nanoseconds the host woke past dispatches' modeled ends", l, d.late.Load)
	r.GaugeFunc("redbud_dev_queue_len", "instantaneous elevator queue length", l, d.queueLen.Load)
}
