package core

import (
	"errors"
	"fmt"
	"sync"

	"redbud/internal/alloc"
	"redbud/internal/stats"
)

// ErrPoolClosed is returned by Alloc after Close.
var ErrPoolClosed = errors.New("core: space pool closed")

// ErrTooLarge signals a request bigger than the delegation chunk; the caller
// must apply to the MDS directly (§IV-A: "Large file requests, whose request
// size is larger than the chunk size, apply for the physical space directly
// from the MDS").
var ErrTooLarge = errors.New("core: request exceeds delegation chunk")

// chunk is one delegated span being carved.
type chunk struct {
	span alloc.Span
	next int64 // next free offset within span
}

func (c *chunk) remaining() int64 {
	if c == nil {
		return 0
	}
	return c.span.End() - c.next
}

func (c *chunk) carve(n int64) alloc.Span {
	sp := alloc.Span{Dev: c.span.Dev, Off: c.next, Len: n}
	c.next += n
	return sp
}

// SpacePoolConfig configures a double-space-pool.
type SpacePoolConfig struct {
	// ChunkSize is the delegation unit (the paper's experiments use 16 MiB).
	ChunkSize int64
	// Delegate obtains a fresh chunk from the MDS (a Delegate RPC).
	Delegate func(size int64) (alloc.Span, error)
}

// SpacePool is the client side of space delegation: a double-space-pool, one
// pool active and one standby, used exchangeably. The active pool serves
// allocation until its free space cannot fit the running request; then the
// standby becomes active and the emptied pool is refilled in the background,
// so small-file allocation almost never waits on the MDS (§IV-A).
type SpacePool struct {
	cfg SpacePoolConfig

	mu        sync.Mutex
	active    *chunk
	standby   *chunk
	refilling bool
	refillErr error
	refillCh  chan struct{} // closed when an in-flight refill lands
	closed    bool
	held      []alloc.Span // every chunk ever delegated (for ReturnAll)

	localAllocs stats.Counter
	refills     stats.Counter
	wasted      stats.Counter // bytes stranded in swapped-out chunks
}

// NewSpacePool returns an empty pool; the first Alloc triggers delegation.
func NewSpacePool(cfg SpacePoolConfig) *SpacePool {
	if cfg.ChunkSize <= 0 {
		panic("core: space pool needs a chunk size")
	}
	if cfg.Delegate == nil {
		panic("core: space pool needs a delegate function")
	}
	return &SpacePool{cfg: cfg}
}

// Alloc carves n bytes of pre-delegated physical space. Requests larger than
// the chunk size return ErrTooLarge — the caller applies to the MDS. The
// fast path never leaves the client; a swap to the standby pool triggers an
// asynchronous refill, and only a completely dry pool (cold start, or a
// burst outrunning the refill) waits for the MDS.
func (p *SpacePool) Alloc(n int64) (alloc.Span, error) {
	for {
		sp, refill, err := p.TryAlloc(n)
		if refill == nil {
			return sp, err
		}
		p.WaitRefill(refill)
	}
}

// TryAlloc is Alloc for a caller that holds a lock: it never waits. When the
// pool is dry it returns a non-nil refill instead of a span; the caller lets
// go of its locks, calls WaitRefill(refill), and tries again.
func (p *SpacePool) TryAlloc(n int64) (sp alloc.Span, refill <-chan struct{}, err error) {
	if n <= 0 {
		return alloc.Span{}, nil, fmt.Errorf("core: invalid allocation size %d", n)
	}
	if n > p.cfg.ChunkSize {
		return alloc.Span{}, nil, ErrTooLarge
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	for {
		if p.closed {
			return alloc.Span{}, nil, ErrPoolClosed
		}
		if p.active.remaining() >= n {
			p.localAllocs.Inc()
			return p.active.carve(n), nil, nil
		}
		// Swap in the standby; the exhausted chunk's tail is stranded
		// (its unused space returns to the MDS with the delegation).
		if p.standby != nil {
			p.wasted.Add(p.active.remaining())
			p.active = p.standby
			p.standby = nil
			p.startRefillLocked()
			continue
		}
		// Nothing usable: make sure a refill is in flight.
		p.startRefillLocked()
		if p.refillErr != nil {
			err := p.refillErr
			p.refillErr = nil
			return alloc.Span{}, nil, err
		}
		return alloc.Span{}, p.refillCh, nil
	}
}

// WaitRefill waits for the refill TryAlloc returned to land and promotes it
// to the active pool.
func (p *SpacePool) WaitRefill(refill <-chan struct{}) {
	<-refill
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.standby != nil {
		if p.active.remaining() > 0 {
			p.wasted.Add(p.active.remaining())
		}
		p.active = p.standby
		p.standby = nil
		p.startRefillLocked()
	}
}

// startRefillLocked launches a background Delegate RPC if none is running
// and the standby slot is empty. Caller holds p.mu.
func (p *SpacePool) startRefillLocked() {
	if p.refilling || p.standby != nil || p.closed {
		return
	}
	p.refilling = true
	p.refillCh = make(chan struct{})
	ch := p.refillCh
	go func() {
		sp, err := p.cfg.Delegate(p.cfg.ChunkSize)
		p.mu.Lock()
		p.refilling = false
		if err != nil {
			p.refillErr = err
		} else {
			p.refills.Inc()
			p.held = append(p.held, sp)
			p.standby = &chunk{span: sp, next: sp.Off}
		}
		close(ch)
		p.mu.Unlock()
	}()
}

// Stats returns (local allocations, chunks delegated, bytes stranded by
// swaps).
func (p *SpacePool) Stats() (localAllocs, refills, wastedBytes int64) {
	return p.localAllocs.Load(), p.refills.Load(), p.wasted.Load()
}

// Close stops the pool and returns the delegated spans, so the owner can
// hand them back to the MDS (after draining pending commits — the MDS frees
// only never-committed sub-ranges).
func (p *SpacePool) Close() []alloc.Span {
	p.mu.Lock()
	p.closed = true
	out := make([]alloc.Span, len(p.held))
	copy(out, p.held)
	p.mu.Unlock()
	return out
}
