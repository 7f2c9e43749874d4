// Package clock abstracts time for the simulated cluster.
//
// Every latency-bearing component in this repository (the simulated disk
// array, the network fabric, the MDS daemon pool, workload think time) takes
// a Clock rather than calling the time package directly. That allows three
// operating modes:
//
//   - Real(1.0): wall-clock time, used when running the real TCP deployment.
//   - Real(scale) with scale < 1: virtual time compressed by 1/scale, used by
//     the experiment harness so that a "5 ms disk seek" costs only
//     5ms*scale of wall time while all reported numbers stay in virtual
//     time. Every wall wait is scaled by the same factor, but a host wakeup
//     is late by a wall amount that is not scaled, so relative latencies
//     hold only as far as that lateness is small against the scaled wait.
//   - Manual: a hand-advanced clock for deterministic unit tests.
//
// Durations passed to Sleep/After and values returned by Now/Since are always
// in virtual time.
//
// Real waits on Go runtime timers. On Linux an idle process waits for its
// next timer in epoll_wait, whose timeout is whole milliseconds, so a
// 100 µs sleep would take about 1 ms; there Real also arms one process-wide
// timerfd alarm at the earliest pending deadline, which returns the poller
// on time (timer_linux.go). The alarm never wakes a sleeper itself: the
// runtime timer does. Off Linux, and in the testing/synctest bubble
// (GOEXPERIMENT=synctest), whose clock is not the kernel's, Real runs on
// runtime timers alone (timer_std.go).
package clock

import (
	"sync"
	"time"
)

// Clock is the time source used throughout the simulator.
type Clock interface {
	// Now returns the current virtual time.
	Now() time.Time
	// Sleep blocks for d of virtual time. Non-positive d returns immediately.
	Sleep(d time.Duration)
	// After returns a channel that delivers the (virtual) time after d has
	// elapsed.
	After(d time.Duration) <-chan time.Time
	// Since is shorthand for Now().Sub(t).
	Since(t time.Time) time.Duration
}

// Epoch is the virtual time at which scaled clocks start. Using a fixed epoch
// keeps experiment traces comparable across runs.
var Epoch = time.Date(2012, 9, 24, 0, 0, 0, 0, time.UTC) // CLUSTER'12 week

// realClock maps virtual durations to wall durations by a constant factor.
type realClock struct {
	scale float64 // wall seconds per virtual second, in (0, 1]
	start time.Time
}

// Real returns a clock whose virtual time runs 1/scale times faster than wall
// time. Real(1) behaves like the time package. Panics if scale is not in
// (0, 1].
func Real(scale float64) Clock {
	if scale <= 0 || scale > 1 {
		panic("clock: scale must be in (0, 1]")
	}
	return &realClock{scale: scale, start: time.Now()} //lint:allow wallclock — Real is the wall-clock bridge
}

func (c *realClock) Now() time.Time {
	wall := time.Since(c.start) //lint:allow wallclock — Real is the wall-clock bridge
	return Epoch.Add(time.Duration(float64(wall) / c.scale))
}

func (c *realClock) Sleep(d time.Duration) {
	if d <= 0 {
		return
	}
	hostSleep(time.Duration(float64(d) * c.scale))
}

func (c *realClock) After(d time.Duration) <-chan time.Time {
	ch := make(chan time.Time, 1)
	if d <= 0 {
		ch <- c.Now()
		return ch
	}
	// A runtime timer, not a sleeping goroutine: a caller that stops
	// listening (an RPC answered long before its timeout) leaves nothing
	// parked behind.
	wall := time.Duration(float64(d) * c.scale)
	hostAfterFunc(wall, func() { ch <- c.Now() })
	return ch
}

func (c *realClock) Since(t time.Time) time.Duration { return c.Now().Sub(t) }

// waiter is a goroutine blocked on a Manual clock.
type waiter struct {
	deadline time.Time
	ch       chan time.Time
}

// Manual is a hand-advanced clock for deterministic tests. The zero value is
// not usable; construct with NewManual.
type Manual struct {
	mu      sync.Mutex
	now     time.Time
	waiters []*waiter
}

// NewManual returns a Manual clock starting at Epoch.
func NewManual() *Manual { return &Manual{now: Epoch} }

// Now returns the current manual time.
func (m *Manual) Now() time.Time {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.now
}

// Sleep blocks until Advance moves the clock past the deadline.
func (m *Manual) Sleep(d time.Duration) {
	if d <= 0 {
		return
	}
	<-m.After(d)
}

// After returns a channel fired once Advance moves the clock to now+d.
func (m *Manual) After(d time.Duration) <-chan time.Time {
	m.mu.Lock()
	defer m.mu.Unlock()
	w := &waiter{deadline: m.now.Add(d), ch: make(chan time.Time, 1)}
	if d <= 0 {
		w.ch <- m.now
		return w.ch
	}
	m.waiters = append(m.waiters, w)
	return w.ch
}

// Since is shorthand for Now().Sub(t).
func (m *Manual) Since(t time.Time) time.Duration { return m.Now().Sub(t) }

// Advance moves the clock forward by d, waking every sleeper whose deadline
// has been reached. Panics on negative d.
func (m *Manual) Advance(d time.Duration) {
	if d < 0 {
		panic("clock: negative advance")
	}
	m.mu.Lock()
	m.now = m.now.Add(d)
	var remaining []*waiter
	for _, w := range m.waiters {
		if !w.deadline.After(m.now) {
			w.ch <- m.now
		} else {
			remaining = append(remaining, w)
		}
	}
	m.waiters = remaining
	m.mu.Unlock()
}

// Waiters reports how many goroutines are currently blocked on the clock.
// Useful for tests that must advance until a component quiesces.
func (m *Manual) Waiters() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.waiters)
}

// NextDeadline returns the earliest pending waiter deadline and true, or the
// zero time and false when nothing is waiting.
func (m *Manual) NextDeadline() (time.Time, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if len(m.waiters) == 0 {
		return time.Time{}, false
	}
	min := m.waiters[0].deadline
	for _, w := range m.waiters[1:] {
		if w.deadline.Before(min) {
			min = w.deadline
		}
	}
	return min, true
}

// AdvanceToNext advances to the earliest pending deadline, returning false if
// no waiter exists.
func (m *Manual) AdvanceToNext() bool {
	dl, ok := m.NextDeadline()
	if !ok {
		return false
	}
	m.Advance(dl.Sub(m.Now()))
	return true
}
