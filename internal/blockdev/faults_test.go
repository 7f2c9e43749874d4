package blockdev

import (
	"bytes"
	"errors"
	"testing"

	"redbud/internal/clock"
	"redbud/internal/obs"
)

func newFaultyDev(t *testing.T, fn WriteFaultFunc) *Device {
	t.Helper()
	d := New(Config{ID: 1, Size: 1 << 30, Model: ZeroLatency(), Clock: clock.Real(1), WriteFault: fn})
	t.Cleanup(d.Close)
	return d
}

func TestInjectedWriteError(t *testing.T) {
	d := newFaultyDev(t, func(off, n int64) (WriteFault, int64) { return WriteError, 0 })
	err := d.Write(0, make([]byte, 8192))
	if !errors.Is(err, ErrInjected) {
		t.Fatalf("err = %v, want ErrInjected", err)
	}
	if d.IsDurable(0, 8192) {
		t.Fatal("failed write reported durable")
	}
	reg := obs.NewRegistry()
	d.RegisterMetrics(reg)
	if m, _ := reg.Snapshot().Get("redbud_dev_injected_faults_total"); m.Value != 1 {
		t.Fatalf("injected faults = %d, want 1", m.Value)
	}
}

func TestTornWriteKeepsOnlyPrefix(t *testing.T) {
	d := newFaultyDev(t, func(off, n int64) (WriteFault, int64) { return WriteTorn, n / 2 })
	p := bytes.Repeat([]byte{0xAB}, 8192)
	err := d.Write(0, p)
	if !errors.Is(err, ErrInjected) {
		t.Fatalf("err = %v, want ErrInjected", err)
	}
	if d.IsDurable(0, 8192) {
		t.Fatal("torn write reported fully durable")
	}
	if !d.IsDurable(0, 4096) {
		t.Fatal("torn write's persisted prefix not durable")
	}
	got, rerr := d.Read(0, 8192)
	if rerr != nil {
		t.Fatal(rerr)
	}
	if !bytes.Equal(got[:4096], p[:4096]) {
		t.Fatal("prefix bytes not persisted")
	}
	if !bytes.Equal(got[4096:], make([]byte, 4096)) {
		t.Fatal("bytes beyond the tear were persisted")
	}
}

func TestTornWriteNeverCompletesFully(t *testing.T) {
	// Even if the hook asks to keep everything, a torn write must persist a
	// strict prefix — otherwise it would not be torn.
	d := newFaultyDev(t, func(off, n int64) (WriteFault, int64) { return WriteTorn, n * 2 })
	if err := d.Write(0, make([]byte, 4096)); !errors.Is(err, ErrInjected) {
		t.Fatalf("err = %v, want ErrInjected", err)
	}
	if d.IsDurable(0, 4096) {
		t.Fatal("torn write reported fully durable")
	}
}

func TestSetWriteFaultArmsMidRun(t *testing.T) {
	d := newFaultyDev(t, nil)
	if err := d.Write(0, make([]byte, 4096)); err != nil {
		t.Fatal(err)
	}
	armed := false
	d.SetWriteFault(func(off, n int64) (WriteFault, int64) {
		armed = true
		return WriteError, 0
	})
	if err := d.Write(4096, make([]byte, 4096)); !errors.Is(err, ErrInjected) {
		t.Fatalf("err = %v, want ErrInjected after arming", err)
	}
	if !armed {
		t.Fatal("hook never called")
	}
	d.SetWriteFault(nil)
	if err := d.Write(8192, make([]byte, 4096)); err != nil {
		t.Fatalf("err = %v after disarming, want nil", err)
	}
}

func TestProbFaultsDeterministic(t *testing.T) {
	fates := func(seed int64) []WriteFault {
		fn := ProbFaults(seed, 0.3, 0.3)
		out := make([]WriteFault, 64)
		for i := range out {
			out[i], _ = fn(int64(i)*4096, 4096)
		}
		return out
	}
	a, b, c := fates(3), fates(3), fates(4)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed diverged at %d: %v vs %v", i, a[i], b[i])
		}
	}
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds produced identical fault streams")
	}
}

func TestFaultedMergePreservesNeighbors(t *testing.T) {
	// Two requests that merge into one dispatch: one faulted, one not.
	// Only the faulted request's range may lose durability.
	var calls int
	d := newFaultyDev(t, func(off, n int64) (WriteFault, int64) {
		calls++
		if off == 0 {
			return WriteError, 0
		}
		return WriteOK, 0
	})
	c1 := writeAsync(d, 0, make([]byte, 4096))
	c2 := writeAsync(d, 4096, make([]byte, 4096))
	err1, err2 := <-c1, <-c2
	if !errors.Is(err1, ErrInjected) {
		t.Fatalf("first write err = %v, want ErrInjected", err1)
	}
	if err2 != nil {
		t.Fatalf("second write err = %v, want nil", err2)
	}
	if d.IsDurable(0, 4096) {
		t.Fatal("faulted range durable")
	}
	if !d.IsDurable(4096, 4096) {
		t.Fatal("healthy neighbor lost durability")
	}
	if calls != 2 {
		t.Fatalf("fault hook called %d times, want once per request", calls)
	}
}
