package blockdev

import (
	"sync"
	"testing"
	"time"

	"redbud/internal/clock"
	"redbud/internal/obs"
)

// seekModel is a disk whose every non-sequential request pays a seek.
var seekModel = DiskModel{SeekBase: time.Millisecond, RotLatency: time.Millisecond, BandwidthMBps: 1000}

// waitSleeping blocks until n goroutines sleep on mc.
func waitSleeping(t *testing.T, mc *clock.Manual, n int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for mc.Waiters() < n {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines sleep on the clock, want %d", mc.Waiters(), n)
		}
		time.Sleep(100 * time.Microsecond)
	}
}

// finished reports whether ch yields within a short real-time wait.
func finished(t *testing.T, ch <-chan error) bool {
	t.Helper()
	select {
	case err := <-ch:
		if err != nil {
			t.Fatal(err)
		}
		return true
	case <-time.After(50 * time.Millisecond):
		return false
	}
}

// A busy device catches up after a late wakeup: with two dispatches queued,
// one clock step of st₁+st₂ finishes both, because the second is charged from
// the first one's modeled end, not from the instant the host woke. Traces,
// latencies and the lateness counter all read modeled instants.
func TestDeviceCatchesUpAfterLateWakeup(t *testing.T) {
	mc := clock.NewManual()
	var mu sync.Mutex
	var evs []Event
	reg := obs.NewRegistry()
	d := New(Config{Size: 1 << 30, Model: seekModel, Clock: mc, Trace: func(e Event) {
		mu.Lock()
		evs = append(evs, e)
		mu.Unlock()
	}})
	defer d.Close()
	defer mc.Advance(time.Hour)
	d.RegisterMetrics(reg)

	t0 := mc.Now()
	first := writeAsync(d, 1<<20, make([]byte, 4096))
	second := writeAsync(d, 64<<20, make([]byte, 4096))
	waitSleeping(t, mc, 1)
	st1 := seekModel.ServiceTime(0, 1<<20, 4096)
	st2 := seekModel.ServiceTime(1<<20+4096, 64<<20, 4096)
	mc.Advance(st1 + st2)
	if !finished(t, first) || !finished(t, second) {
		t.Fatal("one clock step of both service times did not finish both writes: the late wakeup stretched the second dispatch")
	}

	mu.Lock()
	defer mu.Unlock()
	if len(evs) != 2 || !evs[0].T.Equal(t0.Add(st1)) || !evs[1].T.Equal(t0.Add(st1+st2)) {
		t.Fatalf("events %+v, want modeled completions at +%v and +%v", evs, st1, st1+st2)
	}
	if got, want := d.Stats().MeanLatency, (st1+st1+st2)/2; got != want {
		t.Fatalf("mean latency %v, want %v (end − enq of each write)", got, want)
	}
	late, _ := reg.Snapshot().Get("redbud_dev_late_ns_total")
	if late.Value != int64(st2) {
		t.Fatalf("redbud_dev_late_ns_total = %d, want %d: the first dispatch woke st₂ late", late.Value, st2)
	}
}

// An idle device banks no idle time: a request that reaches a device idle
// for 10 ms still takes its full service time after it arrived.
func TestIdleDeviceBanksNoTime(t *testing.T) {
	mc := clock.NewManual()
	d := New(Config{Size: 1 << 30, Model: seekModel, Clock: mc})
	defer d.Close()
	defer mc.Advance(time.Hour)

	first := writeAsync(d, 1<<20, make([]byte, 4096))
	waitSleeping(t, mc, 1)
	mc.Advance(seekModel.ServiceTime(0, 1<<20, 4096))
	if !finished(t, first) {
		t.Fatal("first write did not finish")
	}
	mc.Advance(10 * time.Millisecond)

	second := writeAsync(d, 64<<20, make([]byte, 4096))
	waitSleeping(t, mc, 1)
	mc.Advance(seekModel.ServiceTime(1<<20+4096, 64<<20, 4096) - time.Nanosecond)
	if finished(t, second) {
		t.Fatal("write after an idle spell finished before its service time: the device banked idle time")
	}
	mc.Advance(time.Nanosecond)
	if !finished(t, second) {
		t.Fatal("write did not finish after its service time")
	}
}

// A write its caller issued in the past is charged from then: submitted 10 ms
// late to a device idle since before its instant, it ends at instant +
// service time, with no sleep, and WriteAt returns that end. A second write
// from the same past instant is charged from the first one's end, because
// the head was busy until then.
func TestWriteAtChargesFromPastInstant(t *testing.T) {
	mc := clock.NewManual()
	d := New(Config{Size: 1 << 30, Model: seekModel, Clock: mc})
	defer d.Close()
	defer mc.Advance(time.Hour)

	t0 := mc.Now()
	mc.Advance(10 * time.Millisecond)
	enq := t0.Add(time.Millisecond)
	// writeAt is WriteAt that fails instead of waiting for a clock step.
	writeAt := func(off int64) time.Time {
		t.Helper()
		type result struct {
			end time.Time
			err error
		}
		ch := make(chan result, 1)
		go func() {
			end, err := d.WriteAt(enq, off, make([]byte, 4096))
			ch <- result{end, err}
		}()
		select {
		case r := <-ch:
			if r.err != nil {
				t.Fatal(r.err)
			}
			return r.end
		case <-time.After(5 * time.Second):
			t.Fatal("write from +1ms did not finish without a clock step: it was charged from now")
			return time.Time{}
		}
	}
	end := writeAt(1 << 20)
	if want := enq.Add(seekModel.ServiceTime(0, 1<<20, 4096)); !end.Equal(want) {
		t.Fatalf("write from +1ms on an idle device ends at +%v, want +%v", end.Sub(t0), want.Sub(t0))
	}
	next := writeAt(1<<20 + 4096)
	if want := end.Add(seekModel.ServiceTime(1<<20+4096, 1<<20+4096, 4096)); !next.Equal(want) {
		t.Fatalf("second write from +1ms ends at +%v, want +%v: charged before the head was free", next.Sub(t0), want.Sub(t0))
	}
	if !d.IsDurable(1<<20, 8192) {
		t.Fatal("both writes returned but their range is not durable")
	}
}
