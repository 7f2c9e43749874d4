//go:build linux && !goexperiment.synctest

package clock

import (
	"math/rand"
	"runtime"
	"sort"
	"sync"
	"testing"
	"time"
)

// TestRealSleepWakesOnTime checks that a short sleep of an otherwise idle
// process is not rounded up to the poller's 1 ms epoll timeout.
func TestRealSleepWakesOnTime(t *testing.T) {
	if hostAlarm == nil {
		t.Skip("no timerfd on this kernel")
	}
	c := Real(1)
	const n = 200
	took := make([]time.Duration, n)
	for i := range took {
		start := time.Now()
		c.Sleep(100 * time.Microsecond)
		took[i] = time.Since(start)
	}
	sort.Slice(took, func(i, j int) bool { return took[i] < took[j] })
	if p50 := took[n/2]; p50 >= 400*time.Microsecond {
		t.Fatalf("p50 of %d Sleep(100µs) = %v, want < 400µs (p10 %v, p90 %v)",
			n, p50, took[n/10], took[9*n/10])
	}
}

// TestRealSleepNeverEarly checks that the alarm only hurries the poller:
// every sleeper wakes no sooner than it asked, however many share the alarm.
func TestRealSleepNeverEarly(t *testing.T) {
	c := Real(1)
	rng := rand.New(rand.NewSource(28))
	const n = 1000
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		ask := time.Duration(1+rng.Intn(2000)) * time.Microsecond
		wg.Add(1)
		go func() {
			defer wg.Done()
			start := time.Now()
			c.Sleep(ask)
			if took := time.Since(start); took < ask {
				t.Errorf("Sleep(%v) returned after %v", ask, took)
			}
		}()
	}
	for i := 0; i < 50; i++ {
		ask := time.Duration(1+rng.Intn(2000)) * time.Microsecond
		start := time.Now()
		<-c.After(ask)
		if took := time.Since(start); took < ask {
			t.Errorf("After(%v) delivered after %v", ask, took)
		}
	}
	wg.Wait()
}

// TestRealSleepNoAllocs keeps the alarm's deadline heap allocation-free in
// steady state.
func TestRealSleepNoAllocs(t *testing.T) {
	c := Real(1)
	if n := testing.AllocsPerRun(100, func() { c.Sleep(20 * time.Microsecond) }); n != 0 {
		t.Fatalf("Real(1).Sleep allocates %v times per call", n)
	}
}

// TestRealClocksShareOneAlarm checks that the alarm is process-wide: new Real
// clocks start no goroutine of their own.
func TestRealClocksShareOneAlarm(t *testing.T) {
	before := runtime.NumGoroutine()
	for i := 0; i < 10; i++ {
		c := Real(1)
		c.Sleep(50 * time.Microsecond)
		<-c.After(50 * time.Microsecond)
	}
	if after := runtime.NumGoroutine(); after != before {
		t.Fatalf("goroutines went from %d to %d over ten Real clocks", before, after)
	}
}

// TestAlarmHeapOrder checks the hand-written heap against a sort.
func TestAlarmHeapOrder(t *testing.T) {
	var a alarm
	rng := rand.New(rand.NewSource(28))
	var want []time.Duration
	for i := 0; i < 500; i++ {
		d := time.Duration(rng.Intn(100))
		a.push(d)
		want = append(want, d)
		if i%3 == 0 {
			sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
			if a.pending[0] != want[0] {
				t.Fatalf("heap min %v, want %v", a.pending[0], want[0])
			}
			a.pop()
			want = want[1:]
		}
	}
	sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
	for _, w := range want {
		if a.pending[0] != w {
			t.Fatalf("heap min %v, want %v", a.pending[0], w)
		}
		a.pop()
	}
	if len(a.pending) != 0 {
		t.Fatalf("%d deadlines left after draining", len(a.pending))
	}
}
