package blockdev

import (
	"bytes"
	"errors"
	"sync"
	"testing"
	"time"

	"redbud/internal/clock"
)

func newTestDev(t *testing.T, cfg Config) *Device {
	t.Helper()
	if cfg.Clock == nil {
		cfg.Clock = clock.Real(1)
	}
	if cfg.Model == (DiskModel{}) {
		cfg.Model = ZeroLatency()
	}
	d := New(cfg)
	t.Cleanup(d.Close)
	return d
}

// writeAsync submits a write and returns a channel that yields its result.
func writeAsync(d *Device, off int64, p []byte) <-chan error {
	ch := make(chan error, 1)
	d.WriteAsync(off, p, func(err error) { ch <- err })
	return ch
}

func TestWriteReadRoundTrip(t *testing.T) {
	d := newTestDev(t, Config{Size: 1 << 20})
	data := bytes.Repeat([]byte{0xab}, 1000)
	if err := d.Write(5000, data); err != nil {
		t.Fatal(err)
	}
	got, err := d.Read(5000, 1000)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("read mismatch")
	}
}

func TestWriteAsyncDurability(t *testing.T) {
	d := newTestDev(t, Config{Size: 1 << 20})
	done := make(chan error, 1)
	d.WriteAsync(0, []byte("x"), func(err error) {
		if !d.IsDurable(0, 1) {
			err = errors.New("callback ran before the write was durable")
		}
		done <- err
	})
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if !d.IsDurable(0, 1) {
		t.Fatal("completed write not durable")
	}
	if d.IsDurable(0, 2) {
		t.Fatal("unwritten byte reported durable")
	}
}

func TestOutOfRange(t *testing.T) {
	d := newTestDev(t, Config{Size: 100})
	if err := d.Write(90, make([]byte, 20)); !errors.Is(err, ErrOutOfRange) {
		t.Fatalf("write OOR err = %v", err)
	}
	if _, err := d.Read(-1, 10); !errors.Is(err, ErrOutOfRange) {
		t.Fatalf("read OOR err = %v", err)
	}
}

func TestZeroLengthOps(t *testing.T) {
	d := newTestDev(t, Config{Size: 100})
	if err := d.Write(0, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := d.Read(0, 0); err != nil {
		t.Fatal(err)
	}
	if s := d.Stats(); s.Submitted != 0 {
		t.Fatalf("zero-length ops were submitted: %+v", s)
	}
}

func TestClosedDeviceRejects(t *testing.T) {
	d := New(Config{Size: 100, Model: ZeroLatency(), Clock: clock.Real(1)})
	d.Close()
	if err := d.Write(0, []byte("x")); !errors.Is(err, ErrClosed) {
		t.Fatalf("write after close err = %v", err)
	}
	d.Close() // idempotent
}

func TestSequentialWritesMerge(t *testing.T) {
	// Slow device so requests pile up in the queue and merge.
	model := DiskModel{SeekBase: 50 * time.Millisecond, RotLatency: time.Millisecond, BandwidthMBps: 100, PerRequest: 100 * time.Microsecond}
	d := newTestDev(t, Config{Size: 1 << 26, Model: model, Clock: clock.Real(0.05)})
	const n = 32
	chunk := make([]byte, 4096)
	// A blocker at a far offset seeks for ~51 ms virtual (~2.5 ms wall);
	// the contiguous stream arrives while it is in service and back-merges.
	blocker := writeAsync(d, 1<<25, chunk)
	var dones []<-chan error
	for i := 0; i < n; i++ {
		dones = append(dones, writeAsync(d, int64(i)*4096, chunk))
	}
	<-blocker
	for _, ch := range dones {
		if err := <-ch; err != nil {
			t.Fatal(err)
		}
	}
	s := d.Stats()
	if s.Submitted != n+1 {
		t.Fatalf("submitted = %d, want %d", s.Submitted, n+1)
	}
	if s.Merged == 0 {
		t.Fatalf("no merges for contiguous stream: %+v", s)
	}
	if s.Dispatched+s.Merged != s.Submitted {
		t.Fatalf("dispatched(%d)+merged(%d) != submitted(%d)", s.Dispatched, s.Merged, s.Submitted)
	}
	if !d.IsDurable(0, n*4096) {
		t.Fatal("merged writes not durable")
	}
}

func TestMergedWritesApplyAllPayloads(t *testing.T) {
	model := DiskModel{SeekBase: 50 * time.Millisecond, BandwidthMBps: 100}
	d := newTestDev(t, Config{Size: 1 << 26, Model: model, Clock: clock.Real(0.05)})
	blocker := writeAsync(d, 1<<25, make([]byte, 64))
	var dones []<-chan error
	for i := 0; i < 8; i++ {
		payload := bytes.Repeat([]byte{byte(i + 1)}, 4096)
		dones = append(dones, writeAsync(d, int64(i)*4096, payload))
	}
	<-blocker
	for _, ch := range dones {
		if err := <-ch; err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 8; i++ {
		got, err := d.Read(int64(i)*4096, 4096)
		if err != nil {
			t.Fatal(err)
		}
		if got[0] != byte(i+1) || got[4095] != byte(i+1) {
			t.Fatalf("merged write %d payload corrupted: %v %v", i, got[0], got[4095])
		}
	}
}

func TestDisableMerge(t *testing.T) {
	model := DiskModel{SeekBase: 2 * time.Millisecond, BandwidthMBps: 100}
	d := newTestDev(t, Config{Size: 1 << 24, Model: model, Clock: clock.Real(0.05), DisableMerge: true})
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		off := int64(i) * 4096
		go func() {
			defer wg.Done()
			d.Write(off, make([]byte, 4096))
		}()
	}
	wg.Wait()
	if s := d.Stats(); s.Merged != 0 || s.Dispatched != 16 {
		t.Fatalf("DisableMerge: %+v", s)
	}
}

func TestMergeCap(t *testing.T) {
	model := DiskModel{SeekBase: 50 * time.Millisecond, BandwidthMBps: 1000}
	d := newTestDev(t, Config{Size: 1 << 26, Model: model, Clock: clock.Real(0.05), MaxMergedBytes: 8192})
	blocker := writeAsync(d, 1<<25, make([]byte, 64))
	var dones []<-chan error
	for i := 0; i < 8; i++ {
		dones = append(dones, writeAsync(d, int64(i)*4096, make([]byte, 4096)))
	}
	<-blocker
	for _, ch := range dones {
		<-ch
	}
	// With an 8 KiB cap, each dispatch absorbs at most one extra request.
	if s := d.Stats(); s.Dispatched < 4 {
		t.Fatalf("cap ignored: %+v", s)
	}
}

func TestReadsDontMergeWithWrites(t *testing.T) {
	model := DiskModel{SeekBase: 50 * time.Millisecond, BandwidthMBps: 1000}
	d := newTestDev(t, Config{Size: 1 << 26, Model: model, Clock: clock.Real(0.05)})
	blocker := writeAsync(d, 1<<25, make([]byte, 64)) // keeps head busy
	w := writeAsync(d, 0, make([]byte, 4096))
	r, _ := d.ReadAsync(4096, 4096)
	<-blocker
	<-w
	<-r
	// The read at 4096 is contiguous with the write at 0 but must not merge.
	if s := d.Stats(); s.Merged > 0 {
		t.Fatalf("read merged with write: %+v", s)
	}
}

func TestSeekAccounting(t *testing.T) {
	mc := clock.NewManual()
	model := DiskModel{SeekBase: time.Millisecond, RotLatency: time.Millisecond, BandwidthMBps: 1000, PerRequest: 0}
	d := New(Config{Size: 1 << 24, Model: model, Clock: mc})
	defer d.Close()
	defer mc.Advance(time.Hour) // release any stragglers

	done := writeAsync(d, 1<<20, make([]byte, 4096))
	for mc.Waiters() == 0 {
		time.Sleep(100 * time.Microsecond)
	}
	mc.Advance(time.Hour)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	s := d.Stats()
	if s.Seeks != 1 || s.SeekBytes != 1<<20 {
		t.Fatalf("seek accounting: %+v", s)
	}
}

func TestSequentialNoSeek(t *testing.T) {
	d := newTestDev(t, Config{Size: 1 << 20, Model: ZeroLatency()})
	d.Write(0, make([]byte, 4096))
	d.Write(4096, make([]byte, 4096)) // head is at 4096: sequential
	s := d.Stats()
	if s.Seeks != 0 {
		t.Fatalf("sequential writes counted %d seeks", s.Seeks)
	}
}

func TestTraceEvents(t *testing.T) {
	var mu sync.Mutex
	var evs []Event
	d := newTestDev(t, Config{Size: 1 << 20, Model: ZeroLatency(), Trace: func(e Event) {
		mu.Lock()
		evs = append(evs, e)
		mu.Unlock()
	}})
	d.Write(8192, make([]byte, 100))
	d.Read(8192, 100)
	mu.Lock()
	defer mu.Unlock()
	if len(evs) != 2 {
		t.Fatalf("got %d events, want 2", len(evs))
	}
	if evs[0].Op != OpWrite || evs[0].Offset != 8192 || evs[0].Length != 100 {
		t.Fatalf("write event = %+v", evs[0])
	}
	if evs[0].SeekLen != 8192 {
		t.Fatalf("write event seek = %d, want 8192", evs[0].SeekLen)
	}
	if evs[1].Op != OpRead {
		t.Fatalf("read event = %+v", evs[1])
	}
}

func TestCrashDropsQueueAndPreservesDurable(t *testing.T) {
	model := DiskModel{SeekBase: 10 * time.Millisecond, BandwidthMBps: 100}
	d := newTestDev(t, Config{Size: 1 << 24, Model: model, Clock: clock.Real(0.02)})
	if err := d.Write(0, []byte("survivor")); err != nil {
		t.Fatal(err)
	}
	// Queue several writes, then crash before they can finish.
	var errs []<-chan error
	for i := 1; i <= 5; i++ {
		errs = append(errs, writeAsync(d, int64(i)<<20, make([]byte, 4096)))
	}
	d.Crash()
	crashed := 0
	for _, ch := range errs {
		if err := <-ch; errors.Is(err, ErrCrashed) {
			crashed++
		}
	}
	if crashed == 0 {
		t.Fatal("no queued write failed with ErrCrashed")
	}
	if err := d.Write(0, []byte("x")); !errors.Is(err, ErrCrashed) {
		t.Fatalf("write on crashed device err = %v", err)
	}
	d.Recover()
	got, err := d.Read(0, 8)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "survivor" {
		t.Fatalf("durable data lost: %q", got)
	}
	if !d.IsDurable(0, 8) {
		t.Fatal("durable range lost after recover")
	}
}

func TestConcurrentMixedWorkload(t *testing.T) {
	d := newTestDev(t, Config{Size: 1 << 24, Model: FastHDD(), Clock: clock.Real(1)})
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		base := int64(g) << 20
		go func() {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				off := base + int64(i)*4096
				payload := bytes.Repeat([]byte{byte(i)}, 512)
				if err := d.Write(off, payload); err != nil {
					t.Error(err)
					return
				}
				got, err := d.Read(off, 512)
				if err != nil {
					t.Error(err)
					return
				}
				if !bytes.Equal(got, payload) {
					t.Errorf("readback mismatch at %d", off)
					return
				}
			}
		}()
	}
	wg.Wait()
	s := d.Stats()
	if s.Dispatched+s.Merged != s.Submitted {
		t.Fatalf("conservation violated: %+v", s)
	}
}

func TestMergeRatioStat(t *testing.T) {
	s := Stats{Submitted: 100, Merged: 40}
	if got := s.MergeRatio(); got != 0.4 {
		t.Fatalf("merge ratio = %v", got)
	}
	if (Stats{}).MergeRatio() != 0 {
		t.Fatal("empty merge ratio not zero")
	}
}

func TestResetStats(t *testing.T) {
	d := newTestDev(t, Config{Size: 1 << 20})
	d.Write(0, make([]byte, 100))
	d.ResetStats()
	if s := d.Stats(); s.Submitted != 0 || s.BytesWrite != 0 {
		t.Fatalf("after reset: %+v", s)
	}
	d.Write(4096, make([]byte, 100))
	if s := d.Stats(); s.Submitted != 1 {
		t.Fatalf("post-reset accounting: %+v", s)
	}
}

func TestModelServiceTimes(t *testing.T) {
	m := DefaultHDD()
	if m.SeekTime(0, 0) != 0 {
		t.Fatal("zero-distance seek not free")
	}
	near := m.SeekTime(0, 1<<20)
	far := m.SeekTime(0, 100<<30)
	if near >= far {
		t.Fatalf("seek time not increasing: near=%v far=%v", near, far)
	}
	if far > m.SeekMax+m.RotLatency {
		t.Fatalf("seek beyond cap: %v", far)
	}
	if m.TransferTime(0) != 0 || m.TransferTime(-5) != 0 {
		t.Fatal("degenerate transfer not free")
	}
	t1 := m.TransferTime(1 << 20)
	t2 := m.TransferTime(2 << 20)
	if t2 <= t1 {
		t.Fatal("transfer time not increasing")
	}
	st := m.ServiceTime(0, 1<<30, 4096)
	if st < m.PerRequest {
		t.Fatalf("service time %v below per-request floor", st)
	}
}

func TestZeroLatencyModelIsFree(t *testing.T) {
	m := ZeroLatency()
	if m.ServiceTime(0, 1<<40, 1<<20) != 0 {
		t.Fatal("zero-latency model charged time")
	}
}

func TestReadsPrioritizedOverWriteFlood(t *testing.T) {
	// Deadline-style scheduling: a synchronous read must jump ahead of a
	// backlog of asynchronous writes.
	model := DiskModel{SeekBase: 20 * time.Millisecond, BandwidthMBps: 200}
	d := newTestDev(t, Config{Size: 1 << 26, Model: model, Clock: clock.Real(0.05)})
	if err := d.Write(0, make([]byte, 64)); err != nil { // data to read later
		t.Fatal(err)
	}
	// Flood: one in-flight write plus a deep queue of scattered writes.
	var floods []<-chan error
	for i := 0; i < 20; i++ {
		floods = append(floods, writeAsync(d, int64(i+1)<<20, make([]byte, 4096)))
	}
	start := time.Now()
	if _, err := d.Read(0, 64); err != nil {
		t.Fatal(err)
	}
	readWall := time.Since(start)
	for _, ch := range floods {
		<-ch
	}
	// Without priority the read waits ~20 x 21ms x 0.05 = 21ms wall; with
	// priority it waits for at most the in-flight dispatch plus its own.
	if readWall > 10*time.Millisecond {
		t.Fatalf("read waited %v behind the write flood", readWall)
	}
}

// TestSlowCallbackDoesNotDelayDispatch: callbacks run off the service loop. A
// callback that does not return holds back the callbacks behind it, in
// completion order, but the writes behind it are still served and durable.
func TestSlowCallbackDoesNotDelayDispatch(t *testing.T) {
	d := newTestDev(t, Config{Size: 1 << 20})
	release := make(chan struct{})
	d.WriteAsync(0, make([]byte, 4096), func(error) { <-release })
	var order []int
	var mu sync.Mutex
	done := make(chan struct{})
	for i := 1; i <= 4; i++ {
		i := i
		d.WriteAsync(int64(i)*8192, make([]byte, 4096), func(error) {
			mu.Lock()
			order = append(order, i)
			mu.Unlock()
			if i == 4 {
				close(done)
			}
		})
	}
	deadline := time.Now().Add(5 * time.Second)
	for !d.IsDurable(4*8192, 4096) {
		if time.Now().After(deadline) {
			close(release)
			t.Fatal("writes behind a blocked callback were not served")
		}
		time.Sleep(100 * time.Microsecond)
	}
	mu.Lock()
	ran := len(order)
	mu.Unlock()
	if ran != 0 {
		t.Fatalf("%d callbacks overtook the blocked one", ran)
	}
	close(release)
	<-done
	mu.Lock()
	defer mu.Unlock()
	for i, got := range order {
		if got != i+1 {
			t.Fatalf("callbacks ran in order %v, want completion order", order)
		}
	}
}

// TestCloseRunsEveryCallback: Close returns only after the callbacks of the
// requests it drained have run.
func TestCloseRunsEveryCallback(t *testing.T) {
	model := DiskModel{SeekBase: time.Millisecond, BandwidthMBps: 100}
	d := New(Config{Size: 1 << 24, Model: model, Clock: clock.Real(0.05)})
	var ran sync.WaitGroup
	var n int64
	var mu sync.Mutex
	for i := 0; i < 32; i++ {
		ran.Add(1)
		d.WriteAsync(int64(i)<<18, make([]byte, 512), func(err error) {
			if err == nil {
				mu.Lock()
				n++
				mu.Unlock()
			}
			ran.Done()
		})
	}
	d.Close()
	mu.Lock()
	got := n
	mu.Unlock()
	if got != 32 {
		t.Fatalf("%d of 32 callbacks had run when Close returned", got)
	}
	ran.Wait()
	if err := d.Write(0, []byte("x")); !errors.Is(err, ErrClosed) {
		t.Fatalf("write after close err = %v", err)
	}
}
