package client

import (
	"bytes"
	"runtime"
	"sync"
	"testing"
)

// heldDevice records every buffer handed to the device it wraps and keeps the
// writes queued until release.
type heldDevice struct {
	BlockDevice
	mu     sync.Mutex
	handed [][]byte
	held   []func()
}

func (d *heldDevice) WriteAsync(off int64, p []byte, done func(error)) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.handed = append(d.handed, p)
	d.held = append(d.held, func() { d.BlockDevice.WriteAsync(off, p, done) })
}

func (d *heldDevice) handedCount() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return len(d.handed)
}

func (d *heldDevice) release() {
	d.mu.Lock()
	held := d.held
	d.held = nil
	d.mu.Unlock()
	for _, w := range held {
		w()
	}
}

// TestPartialOverwriteLeavesHandedBufferAlone: the page cache and the device
// share one copy of a write, so a later partial write over a cached page must
// patch a clone, never the page itself. The first write is still queued at
// the device when the overwrite lands; the bytes the device was handed must
// not change, and the cache must show the overwrite. Inline: the write is
// backed by the delegation pool. Behind: it needs a layout-get, and the
// overwrite queues behind it.
func TestPartialOverwriteLeavesHandedBufferAlone(t *testing.T) {
	for _, tc := range []struct {
		name       string
		delegation int64
	}{{"inline", 1 << 20}, {"behind", 0}} {
		t.Run(tc.name, func(t *testing.T) {
			gc := newGatedCluster(t)
			held := &heldDevice{BlockDevice: gc.data}
			c := gc.mount(DelayedCommit, func(_ string, cfg *Config) {
				cfg.DelegationChunk = tc.delegation
				cfg.Devices = map[uint32]BlockDevice{0: held}
			})
			f := mustCreate(t, c, "/f")
			first := pattern(PageSize, 3)
			mustWrite(t, f, first, 0)
			eventually(t, "the first write to reach the device", func() bool { return held.handedCount() > 0 })

			patch := []byte("patched over a queued write")
			mustWrite(t, f, patch, 100)
			want := append([]byte(nil), first...)
			copy(want[100:], patch)
			got := make([]byte, PageSize)
			if _, err := f.ReadAt(got, 0); err != nil || !bytes.Equal(got, want) {
				t.Fatalf("cached read: err %v, shows the overwrite %v", err, bytes.Equal(got, want))
			}
			held.mu.Lock()
			handed := held.handed[0]
			held.mu.Unlock()
			if !bytes.Equal(handed, first) {
				t.Fatal("a partial overwrite changed the bytes the device was handed for the first write")
			}

			held.release()
			eventually(t, "the overwrite to reach the device", func() bool { return held.handedCount() > 1 })
			held.release()
			if err := f.Sync(); err != nil {
				t.Fatal(err)
			}
			gc.assertOrdered()
			if err := c.Close(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestWriteCopiesOnce: an aligned 4 KiB WriteAt of a new page allocates about
// one page — the one private copy the page cache and the device share — not a
// cache page plus a second copy for the device.
func TestWriteCopiesOnce(t *testing.T) {
	tc := newCluster(t)
	c := tc.client(DelayedCommit, 16<<20)
	f := mustCreate(t, c, "/f")
	page := pattern(PageSize, 4)
	mustWrite(t, f, page, 0) // primes the pool
	const n = 1000
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 1; i <= n; i++ {
		mustWrite(t, f, page, int64(i)*PageSize)
	}
	runtime.ReadMemStats(&after)
	perOp := float64(after.TotalAlloc-before.TotalAlloc) / n
	t.Logf("%.0f bytes allocated per 4 KiB write", perOp)
	if perOp > 1.5*PageSize {
		t.Fatalf("%.0f bytes allocated per 4 KiB write, want about one page (%d)", perOp, PageSize)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
}
