package core

import (
	"sync"
	"time"

	"redbud/internal/clock"
)

// PoolConfig configures the adaptive commit-thread pool.
type PoolConfig struct {
	// Max is ThreadNumsMax; the paper's experiments use 9.
	Max int
	// QueueLenMax is the queue length at which the pool reaches Max
	// threads: ρ = Max / QueueLenMax.
	QueueLenMax int
	// QueueLen samples the commit queue length.
	QueueLen func() int
	// Worker is the commit-daemon body. It must return promptly once stop
	// is closed. One invocation per live thread.
	Worker func(stop <-chan struct{})
	// Interval is the resize period.
	Interval time.Duration
	// Fixed pins the pool at exactly this many threads (ablation:
	// adaptive pool vs fixed); 0 selects the adaptive formula.
	Fixed int
	Clock clock.Clock
}

// Pool maintains between 1 and Max worker goroutines, sized proportionally
// to the commit queue length: more commit requests spawn more commit
// threads, which compete for schedule time and drain the queue (§IV-B).
type Pool struct {
	cfg PoolConfig
	clk clock.Clock

	mu      sync.Mutex
	stops   []chan struct{}
	stopped bool

	done chan struct{}
	wg   sync.WaitGroup // resizer
	wwg  sync.WaitGroup // workers
}

// NewPool validates cfg and returns a stopped pool.
func NewPool(cfg PoolConfig) *Pool {
	if cfg.Max < 1 {
		cfg.Max = 1
	}
	if cfg.QueueLenMax < 1 {
		cfg.QueueLenMax = 1
	}
	if cfg.Worker == nil {
		panic("core: pool needs a worker")
	}
	if cfg.QueueLen == nil {
		panic("core: pool needs a queue length source")
	}
	if cfg.Interval <= 0 {
		cfg.Interval = 10 * time.Millisecond
	}
	if cfg.Clock == nil {
		cfg.Clock = clock.Real(1)
	}
	return &Pool{cfg: cfg, clk: cfg.Clock, done: make(chan struct{})}
}

// Target returns the thread count the paper's formula prescribes for a
// queue length: clamp(ρ·QueueLen, 1, Max), or the pinned size when Fixed.
func (p *Pool) Target(queueLen int) int {
	if p.cfg.Fixed > 0 {
		return p.cfg.Fixed
	}
	t := queueLen * p.cfg.Max / p.cfg.QueueLenMax
	if t < 1 {
		t = 1
	}
	if t > p.cfg.Max {
		t = p.cfg.Max
	}
	return t
}

// Start launches the initial workers and the resize loop.
func (p *Pool) Start() {
	p.resizeTo(p.Target(0))
	p.wg.Add(1)
	go p.resizer()
}

// Size returns the current number of worker threads.
func (p *Pool) Size() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.stops)
}

// resizer periodically applies the sizing formula.
func (p *Pool) resizer() {
	defer p.wg.Done()
	for {
		select {
		case <-p.done:
			return
		case <-p.clk.After(p.cfg.Interval):
		}
		p.resizeTo(p.Target(p.cfg.QueueLen()))
	}
}

// resizeTo spawns or retires workers to reach n threads.
func (p *Pool) resizeTo(n int) {
	p.mu.Lock()
	if p.stopped {
		p.mu.Unlock()
		return
	}
	for len(p.stops) < n {
		stop := make(chan struct{})
		p.stops = append(p.stops, stop)
		p.wwg.Add(1)
		go func() {
			defer p.wwg.Done()
			p.cfg.Worker(stop)
		}()
	}
	for len(p.stops) > n {
		last := len(p.stops) - 1
		close(p.stops[last])
		p.stops = p.stops[:last]
	}
	p.mu.Unlock()
}

// Stop retires all workers and halts the resizer. It blocks until every
// worker has returned.
func (p *Pool) Stop() {
	p.mu.Lock()
	if p.stopped {
		p.mu.Unlock()
		return
	}
	p.stopped = true
	for _, s := range p.stops {
		close(s)
	}
	p.stops = nil
	p.mu.Unlock()
	close(p.done)
	p.wg.Wait()
	p.wwg.Wait()
}
