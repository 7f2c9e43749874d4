//go:build linux && !goexperiment.synctest

package clock

import (
	"os"
	"sync"
	"syscall"
	"time"
	"unsafe"
)

// The Go runtime waits for its next timer in epoll_wait when no goroutine is
// runnable, and epoll_wait's timeout is whole milliseconds: any delay under
// 1 ms waits 1 ms. The alarm is one timerfd the runtime's poller watches,
// armed for the earliest wall deadline any Real sleep or After is waiting
// for, so the poller returns on time and the scheduler finds the runtime
// timer due. It only wakes the poller: a sleeper is still woken by its own
// runtime timer, which every schedule() checks, where a goroutine the poller
// readied would queue behind runnable work under load.

// hostBase anchors the alarm's deadlines, kept as monotonic wall time since.
var hostBase = time.Now() //lint:allow wallclock — Real is the wall-clock bridge

// hostAlarm is shared by every Real clock of the process; nil when the
// kernel refuses a timerfd (seccomp, ENOSYS), and Real then runs on runtime
// timers alone. It starts with the process, so goroutine counts taken in
// tests include it; and since its goroutine waits in the poller, the
// runtime's "all goroutines are asleep" check never fires.
var hostAlarm = startAlarm()

// hostSleep blocks for d of wall time on a runtime timer.
func hostSleep(d time.Duration) {
	if hostAlarm != nil {
		hostAlarm.wakeIn(d)
	}
	time.Sleep(d) //lint:allow wallclock — Real is the wall-clock bridge
}

// hostAfterFunc runs f after d of wall time on a runtime timer.
func hostAfterFunc(d time.Duration, f func()) {
	if hostAlarm != nil {
		hostAlarm.wakeIn(d)
	}
	time.AfterFunc(d, f) //lint:allow wallclock — Real is the wall-clock bridge
}

const clockMonotonic = 1 // CLOCK_MONOTONIC, the clock of Go's runtime timers

// itimerspec is the kernel's struct itimerspec.
type itimerspec struct {
	interval syscall.Timespec
	value    syscall.Timespec
}

type alarm struct {
	fd   int
	file *os.File // fd, registered with the runtime poller

	mu      sync.Mutex
	pending []time.Duration // min-heap of wall deadlines since hostBase
	armed   time.Duration   // deadline the timerfd is set for; 0 when disarmed
	dead    bool            // the timerfd can no longer be read
	spec    itimerspec      // timerfd_settime's argument, kept off the stack
}

func startAlarm() *alarm {
	fd, _, errno := syscall.Syscall(syscall.SYS_TIMERFD_CREATE, clockMonotonic,
		syscall.O_NONBLOCK|syscall.O_CLOEXEC, 0)
	if errno != 0 {
		return nil
	}
	a := &alarm{fd: int(fd), file: os.NewFile(fd, "clock-alarm")}
	go a.run()
	return a
}

// wakeIn records a deadline d of wall time from now and, when it is the
// earliest pending one, sets the timerfd for it. The deadline is taken under
// the lock, so waiting for the lock cannot move it ahead of the runtime timer
// the caller starts next; that timer is due a fraction of a microsecond after
// the timerfd fires, inside the poller's own wakeup latency. Were it not yet
// due, the poller would sleep its 1 ms tick again: late, never early.
func (a *alarm) wakeIn(d time.Duration) {
	a.mu.Lock()
	if !a.dead {
		dl := time.Since(hostBase) + d //lint:allow wallclock — Real is the wall-clock bridge
		a.push(dl)
		if a.armed == 0 || dl < a.armed {
			a.arm(dl, d)
		}
	}
	a.mu.Unlock()
}

// run waits on the timerfd. Each expiry drops the deadlines that have passed
// and sets the timerfd for the next one.
func (a *alarm) run() {
	var buf [8]byte // the expiry count, which nothing needs
	for {
		if _, err := a.file.Read(buf[:]); err != nil {
			// Nothing can wake the poller early any more; sleepers still
			// wake on their runtime timers, on the host's tick.
			a.mu.Lock()
			a.dead, a.pending = true, nil
			a.mu.Unlock()
			return
		}
		a.mu.Lock()
		now := time.Since(hostBase) //lint:allow wallclock — Real is the wall-clock bridge
		for len(a.pending) > 0 && a.pending[0] <= now {
			a.pop()
		}
		a.armed = 0
		if len(a.pending) > 0 {
			a.arm(a.pending[0], a.pending[0]-now)
		}
		a.mu.Unlock()
	}
}

// arm sets the timerfd to expire in (at least) rel, for deadline dl.
func (a *alarm) arm(dl, rel time.Duration) {
	if rel <= 0 {
		rel = 1 // a zero it_value disarms
	}
	a.spec.value = syscall.NsecToTimespec(int64(rel))
	// A failed set leaves the poller on its own tick: sleepers wake late,
	// never early, so there is nothing to report.
	syscall.Syscall6(syscall.SYS_TIMERFD_SETTIME, uintptr(a.fd), 0,
		uintptr(unsafe.Pointer(&a.spec)), 0, 0, 0)
	a.armed = dl
}

// push adds dl to the heap.
func (a *alarm) push(dl time.Duration) {
	h := append(a.pending, dl)
	i := len(h) - 1
	for i > 0 {
		p := (i - 1) / 2
		if h[p] <= dl {
			break
		}
		h[i] = h[p]
		i = p
	}
	h[i] = dl
	a.pending = h
}

// pop removes the earliest deadline from the heap.
func (a *alarm) pop() {
	h := a.pending
	n := len(h) - 1
	last := h[n]
	h = h[:n]
	i := 0
	for {
		c := 2*i + 1
		if c >= n {
			break
		}
		if c+1 < n && h[c+1] < h[c] {
			c++
		}
		if last <= h[c] {
			break
		}
		h[i] = h[c]
		i = c
	}
	if n > 0 {
		h[i] = last
	}
	a.pending = h
}
