package core

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"redbud/internal/alloc"
	"redbud/internal/clock"
)

// ---------------------------------------------------------------------------
// Queue

func TestQueueEnqueueDedup(t *testing.T) {
	q := NewQueue[int]()
	if !q.Enqueue(1) {
		t.Fatal("first enqueue rejected")
	}
	if q.Enqueue(1) {
		t.Fatal("duplicate enqueue accepted")
	}
	if q.Len() != 1 {
		t.Fatalf("len = %d", q.Len())
	}
	enq, dup := q.Stats()
	if enq != 1 || dup != 1 {
		t.Fatalf("stats = %d,%d", enq, dup)
	}
}

func TestQueueDequeueBatch(t *testing.T) {
	q := NewQueue[int]()
	for i := 0; i < 5; i++ {
		q.Enqueue(i)
	}
	stop := make(chan struct{})
	batch := q.Dequeue(3, stop)
	if len(batch) != 3 || batch[0] != 0 || batch[2] != 2 {
		t.Fatalf("batch = %v", batch)
	}
	if q.Len() != 2 {
		t.Fatalf("len = %d", q.Len())
	}
	// Dequeued keys can be re-enqueued.
	if !q.Enqueue(0) {
		t.Fatal("re-enqueue after dequeue rejected")
	}
}

func TestQueueDequeueBlocksUntilEnqueue(t *testing.T) {
	q := NewQueue[int]()
	stop := make(chan struct{})
	got := make(chan []int, 1)
	go func() { got <- q.Dequeue(1, stop) }()
	select {
	case b := <-got:
		t.Fatalf("dequeue returned %v on empty queue", b)
	case <-time.After(10 * time.Millisecond):
	}
	q.Enqueue(42)
	select {
	case b := <-got:
		if len(b) != 1 || b[0] != 42 {
			t.Fatalf("batch = %v", b)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("dequeue did not wake")
	}
}

func TestQueueStopUnblocks(t *testing.T) {
	q := NewQueue[int]()
	stop := make(chan struct{})
	got := make(chan []int, 1)
	go func() { got <- q.Dequeue(1, stop) }()
	close(stop)
	select {
	case b := <-got:
		if b != nil {
			t.Fatalf("batch = %v", b)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("stop did not unblock dequeue")
	}
}

func TestQueueCloseUnblocksAndDrops(t *testing.T) {
	q := NewQueue[int]()
	stop := make(chan struct{})
	got := make(chan []int, 1)
	go func() { got <- q.Dequeue(1, stop) }()
	time.Sleep(5 * time.Millisecond)
	q.Close()
	select {
	case b := <-got:
		if b != nil {
			t.Fatalf("batch = %v", b)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("close did not unblock dequeue")
	}
	if q.Enqueue(1) {
		t.Fatal("enqueue accepted after close")
	}
	q.Close() // idempotent
}

func TestQueueDrainAfterClose(t *testing.T) {
	q := NewQueue[int]()
	q.Enqueue(7)
	q.Close()
	if b := q.Dequeue(4, nil); len(b) != 1 || b[0] != 7 {
		t.Fatalf("drain after close = %v", b)
	}
}

func TestQueueConcurrentProducersConsumers(t *testing.T) {
	q := NewQueue[int]()
	const n = 1000
	var consumed atomic.Int64
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				b := q.Dequeue(8, stop)
				if b == nil {
					return
				}
				consumed.Add(int64(len(b)))
			}
		}()
	}
	for i := 0; i < n; i++ {
		q.Enqueue(i) // unique keys: all accepted
	}
	for consumed.Load() < n {
		time.Sleep(time.Millisecond)
	}
	close(stop)
	wg.Wait()
	if consumed.Load() != n {
		t.Fatalf("consumed %d, want %d", consumed.Load(), n)
	}
}

// ---------------------------------------------------------------------------
// Pool

func TestPoolTargetFormula(t *testing.T) {
	p := NewPool(PoolConfig{
		Max: 9, QueueLenMax: 90,
		QueueLen: func() int { return 0 },
		Worker:   func(stop <-chan struct{}) { <-stop },
	})
	cases := map[int]int{0: 1, 5: 1, 10: 1, 20: 2, 45: 4, 90: 9, 500: 9}
	for qlen, want := range cases {
		if got := p.Target(qlen); got != want {
			t.Errorf("Target(%d) = %d, want %d", qlen, got, want)
		}
	}
}

func TestPoolGrowsAndShrinksWithQueue(t *testing.T) {
	var qlen atomic.Int64
	p := NewPool(PoolConfig{
		Max: 9, QueueLenMax: 90,
		QueueLen: func() int { return int(qlen.Load()) },
		Worker:   func(stop <-chan struct{}) { <-stop },
		Interval: time.Millisecond,
	})
	p.Start()
	defer p.Stop()
	if p.Size() != 1 {
		t.Fatalf("initial size = %d", p.Size())
	}
	qlen.Store(90)
	waitFor(t, func() bool { return p.Size() == 9 })
	qlen.Store(10)
	waitFor(t, func() bool { return p.Size() == 1 })
}

func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatal("condition not reached")
}

func TestPoolStopTerminatesWorkers(t *testing.T) {
	var live atomic.Int64
	p := NewPool(PoolConfig{
		Max: 4, QueueLenMax: 4,
		QueueLen: func() int { return 4 },
		Worker: func(stop <-chan struct{}) {
			live.Add(1)
			defer live.Add(-1)
			<-stop
		},
		Interval: time.Millisecond,
	})
	p.Start()
	waitFor(t, func() bool { return live.Load() == 4 })
	p.Stop()
	if live.Load() != 0 {
		t.Fatalf("%d workers alive after stop", live.Load())
	}
	p.Stop() // idempotent
}

func TestPoolConfigValidation(t *testing.T) {
	for name, cfg := range map[string]PoolConfig{
		"no worker": {QueueLen: func() int { return 0 }},
		"no qlen":   {Worker: func(<-chan struct{}) {}},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: no panic", name)
				}
			}()
			NewPool(cfg)
		}()
	}
}

// ---------------------------------------------------------------------------
// Compound

func TestCompoundFixed(t *testing.T) {
	c := NewCompound(CompoundConfig{Fixed: 3})
	if c.Degree() != 3 {
		t.Fatalf("degree = %d", c.Degree())
	}
	c.Tick()
	if c.Degree() != 3 {
		t.Fatal("fixed degree changed")
	}
}

func TestCompoundRisesUnderCongestion(t *testing.T) {
	congestion := int64(0)
	c := NewCompound(CompoundConfig{
		Max:           6,
		NetCongestion: func() time.Duration { return time.Duration(atomic.LoadInt64(&congestion)) },
	})
	if c.Degree() != 1 {
		t.Fatalf("initial degree = %d", c.Degree())
	}
	// Exactly at the threshold is not yet congested.
	atomic.StoreInt64(&congestion, int64(congestionThreshold))
	c.Tick()
	if c.Degree() != 1 {
		t.Fatalf("degree at the threshold = %d, want 1", c.Degree())
	}
	atomic.StoreInt64(&congestion, int64(congestionThreshold+1))
	for i := 0; i < 10; i++ {
		c.Tick()
	}
	if c.Degree() != 6 {
		t.Fatalf("congested degree = %d, want max 6", c.Degree())
	}
	atomic.StoreInt64(&congestion, 0)
	for i := 0; i < 10; i++ {
		c.Tick()
	}
	if c.Degree() != 1 {
		t.Fatalf("idle degree = %d, want 1", c.Degree())
	}
}

func TestCompoundRisesUnderServerLoad(t *testing.T) {
	load := uint32(0)
	c := NewCompound(CompoundConfig{
		Max:        4,
		ServerLoad: func() uint8 { return uint8(atomic.LoadUint32(&load)) },
	})
	atomic.StoreUint32(&load, loadThreshold)
	c.Tick()
	if c.Degree() != 1 {
		t.Fatalf("degree at the load threshold = %d, want 1", c.Degree())
	}
	atomic.StoreUint32(&load, loadThreshold+1)
	c.Tick()
	c.Tick()
	if c.Degree() != 3 {
		t.Fatalf("degree after 2 busy ticks = %d", c.Degree())
	}
}

// ---------------------------------------------------------------------------
// SpacePool

// fakeMDS hands out sequential chunks.
type fakeMDS struct {
	mu    sync.Mutex
	next  int64
	calls int
	fail  error
	delay time.Duration
}

func (m *fakeMDS) delegate(size int64) (alloc.Span, error) {
	if m.delay > 0 {
		time.Sleep(m.delay)
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	m.calls++
	if m.fail != nil {
		return alloc.Span{}, m.fail
	}
	sp := alloc.Span{Dev: 0, Off: m.next, Len: size}
	m.next += size
	return sp, nil
}

func TestSpacePoolLocalAllocation(t *testing.T) {
	m := &fakeMDS{}
	p := NewSpacePool(SpacePoolConfig{ChunkSize: 1 << 20, Delegate: m.delegate})
	sp1, err := p.Alloc(4096)
	if err != nil {
		t.Fatal(err)
	}
	sp2, err := p.Alloc(4096)
	if err != nil {
		t.Fatal(err)
	}
	// Consecutive small allocations are physically contiguous — the whole
	// point of delegation.
	if sp2.Off != sp1.End() {
		t.Fatalf("allocations not contiguous: %v then %v", sp1, sp2)
	}
	local, _, _ := p.Stats()
	if local != 2 {
		t.Fatalf("local allocs = %d", local)
	}
}

func TestSpacePoolTooLarge(t *testing.T) {
	p := NewSpacePool(SpacePoolConfig{ChunkSize: 1024, Delegate: (&fakeMDS{}).delegate})
	if _, err := p.Alloc(2048); !errors.Is(err, ErrTooLarge) {
		t.Fatalf("err = %v", err)
	}
	if _, err := p.Alloc(0); err == nil {
		t.Fatal("zero alloc succeeded")
	}
}

func TestSpacePoolSwapsToStandby(t *testing.T) {
	m := &fakeMDS{}
	p := NewSpacePool(SpacePoolConfig{ChunkSize: 10000, Delegate: m.delegate})
	// Drain most of the first chunk.
	if _, err := p.Alloc(9000); err != nil {
		t.Fatal(err)
	}
	// Wait for the background refill of the standby.
	waitFor(t, func() bool { _, refills, _ := p.Stats(); return refills >= 2 })
	// This doesn't fit the active chunk's remainder; the standby takes over
	// without ErrTooLarge and without blocking on a cold MDS call.
	sp, err := p.Alloc(5000)
	if err != nil {
		t.Fatal(err)
	}
	if sp.Off != 10000 {
		t.Fatalf("allocation not from standby chunk: %v", sp)
	}
	_, _, wasted := p.Stats()
	if wasted != 1000 {
		t.Fatalf("wasted = %d, want 1000", wasted)
	}
}

func TestSpacePoolColdStartBlocks(t *testing.T) {
	m := &fakeMDS{delay: 5 * time.Millisecond}
	p := NewSpacePool(SpacePoolConfig{ChunkSize: 1 << 20, Delegate: m.delegate})
	sp, err := p.Alloc(100)
	if err != nil {
		t.Fatal(err)
	}
	if sp.Len != 100 {
		t.Fatalf("span = %v", sp)
	}
}

func TestSpacePoolDelegateError(t *testing.T) {
	boom := errors.New("mds down")
	m := &fakeMDS{fail: boom}
	p := NewSpacePool(SpacePoolConfig{ChunkSize: 1024, Delegate: m.delegate})
	if _, err := p.Alloc(100); !errors.Is(err, boom) {
		t.Fatalf("err = %v", err)
	}
	// The pool recovers when the MDS does.
	m.mu.Lock()
	m.fail = nil
	m.mu.Unlock()
	if _, err := p.Alloc(100); err != nil {
		t.Fatalf("pool did not recover: %v", err)
	}
}

func TestSpacePoolCloseReturnsHeld(t *testing.T) {
	m := &fakeMDS{}
	p := NewSpacePool(SpacePoolConfig{ChunkSize: 4096, Delegate: m.delegate})
	if _, err := p.Alloc(100); err != nil {
		t.Fatal(err)
	}
	held := p.Close()
	if len(held) < 1 {
		t.Fatalf("held = %v", held)
	}
	if _, err := p.Alloc(100); !errors.Is(err, ErrPoolClosed) {
		t.Fatalf("alloc after close err = %v", err)
	}
}

func TestSpacePoolConcurrent(t *testing.T) {
	m := &fakeMDS{}
	p := NewSpacePool(SpacePoolConfig{ChunkSize: 1 << 20, Delegate: m.delegate})
	var mu sync.Mutex
	type iv struct{ off, end int64 }
	var all []iv
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				sp, err := p.Alloc(1024)
				if err != nil {
					t.Error(err)
					return
				}
				mu.Lock()
				all = append(all, iv{sp.Off, sp.End()})
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	// No two allocations overlap.
	mu.Lock()
	defer mu.Unlock()
	seen := map[int64]bool{}
	for _, s := range all {
		if seen[s.off] {
			t.Fatalf("duplicate offset %d", s.off)
		}
		seen[s.off] = true
	}
	if len(all) != 1600 {
		t.Fatalf("allocations = %d", len(all))
	}
}

func TestSpacePoolValidation(t *testing.T) {
	for name, fn := range map[string]func(){
		"no chunk":    func() { NewSpacePool(SpacePoolConfig{Delegate: (&fakeMDS{}).delegate}) },
		"no delegate": func() { NewSpacePool(SpacePoolConfig{ChunkSize: 4096}) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: no panic", name)
				}
			}()
			fn()
		}()
	}
}

// Pool workers integrate with the queue: a smoke test of the pair.
func TestPoolDrainsQueue(t *testing.T) {
	q := NewQueue[int]()
	var processed atomic.Int64
	p := NewPool(PoolConfig{
		Max: 4, QueueLenMax: 16,
		QueueLen: q.Len,
		Interval: time.Millisecond,
		Worker: func(stop <-chan struct{}) {
			for {
				b := q.Dequeue(3, stop)
				if b == nil {
					return
				}
				processed.Add(int64(len(b)))
			}
		},
		Clock: clock.Real(1),
	})
	p.Start()
	defer p.Stop()
	for i := 0; i < 500; i++ {
		q.Enqueue(i)
	}
	waitFor(t, func() bool { return processed.Load() == 500 })
}
