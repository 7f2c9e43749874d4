package blockdev

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestPageStoreReadUnwrittenIsZero(t *testing.T) {
	s := newPageStore()
	buf := make([]byte, 100)
	for i := range buf {
		buf[i] = 0xff
	}
	s.readAt(buf, 12345)
	for i, b := range buf {
		if b != 0 {
			t.Fatalf("byte %d = %#x, want 0", i, b)
		}
	}
}

func TestPageStoreRoundTrip(t *testing.T) {
	s := newPageStore()
	data := []byte("hello block world")
	s.writeAt(data, 4090) // crosses a page boundary
	got := make([]byte, len(data))
	s.readAt(got, 4090)
	if !bytes.Equal(got, data) {
		t.Fatalf("got %q, want %q", got, data)
	}
}

func TestPageStoreOverwrite(t *testing.T) {
	s := newPageStore()
	s.writeAt(bytes.Repeat([]byte{1}, 8192), 0)
	s.writeAt(bytes.Repeat([]byte{2}, 100), 4000)
	got := make([]byte, 8192)
	s.readAt(got, 0)
	if got[3999] != 1 || got[4000] != 2 || got[4099] != 2 || got[4100] != 1 {
		t.Fatalf("overwrite boundary wrong: %v %v %v %v", got[3999], got[4000], got[4099], got[4100])
	}
}

func TestPageStoreQuickRoundTrip(t *testing.T) {
	s := newPageStore()
	// Reference model: one flat slice.
	const size = 1 << 16
	ref := make([]byte, size)
	f := func(off uint16, raw []byte) bool {
		if len(raw) == 0 {
			return true
		}
		o := int64(off) % (size / 2)
		n := len(raw)
		if int(o)+n > size {
			n = size - int(o)
		}
		s.writeAt(raw[:n], o)
		copy(ref[o:], raw[:n])
		got := make([]byte, size)
		s.readAt(got, 0)
		return bytes.Equal(got, ref)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// TestPageStoreNeverWritesHandedBuffer: the store keeps a whole page of a
// write by reference, so two pages can share one caller buffer. A partial
// write over one of them must patch a copy, leaving the other page and the
// buffer itself as they were.
func TestPageStoreNeverWritesHandedBuffer(t *testing.T) {
	s := newPageStore()
	shared := bytes.Repeat([]byte{7}, pageSize)
	s.writeAt(shared, 0)
	s.writeAt(shared, 3*pageSize)
	s.writeAt([]byte{1, 2, 3}, 100)
	want := bytes.Repeat([]byte{7}, pageSize)
	if !bytes.Equal(shared, want) {
		t.Fatal("partial write patched the caller's buffer")
	}
	got := make([]byte, pageSize)
	s.readAt(got, 3*pageSize)
	if !bytes.Equal(got, want) {
		t.Fatal("partial write over one page changed another page of the same buffer")
	}
	s.readAt(got, 0)
	copy(want[100:], []byte{1, 2, 3})
	if !bytes.Equal(got, want) {
		t.Fatal("partial write lost over an adopted page")
	}
}

func TestIntervalSetBasics(t *testing.T) {
	var s intervalSet
	if !s.contains(5, 5) {
		t.Fatal("empty range must be contained")
	}
	s.add(10, 20)
	if !s.contains(10, 20) || !s.contains(12, 18) {
		t.Fatal("added range not contained")
	}
	if s.contains(9, 11) || s.contains(19, 21) || s.contains(0, 5) {
		t.Fatal("uncovered range reported contained")
	}
}

func TestIntervalSetCoalesce(t *testing.T) {
	var s intervalSet
	s.add(0, 10)
	s.add(10, 20) // adjacent: coalesce
	if s.count() != 1 {
		t.Fatalf("adjacent add left %d intervals, want 1", s.count())
	}
	if !s.contains(0, 20) {
		t.Fatal("coalesced range not contained")
	}
	s.add(30, 40)
	s.add(15, 35) // bridges the two
	if s.count() != 1 || !s.contains(0, 40) {
		t.Fatalf("bridging add: count=%d contains=%v", s.count(), s.contains(0, 40))
	}
}

func TestIntervalSetSubsumed(t *testing.T) {
	var s intervalSet
	s.add(0, 100)
	s.add(10, 20)
	if s.count() != 1 {
		t.Fatalf("subsumed add split interval: count=%d", s.count())
	}
}

func TestIntervalSetEmptyAdd(t *testing.T) {
	var s intervalSet
	s.add(10, 10)
	s.add(10, 5)
	if s.count() != 0 {
		t.Fatal("empty/inverted add created intervals")
	}
}

// TestIntervalSetAddTable checks in-place merging against a bitmap: each
// case starts from the same set and adds one range.
func TestIntervalSetAddTable(t *testing.T) {
	start := []interval{{10, 20}, {30, 40}, {50, 60}, {70, 80}}
	cases := []struct {
		name       string
		start, end int64
		want       int // intervals afterwards
	}{
		{"before all", 0, 5, 5},
		{"in a gap", 22, 28, 5},
		{"after all", 90, 95, 5},
		{"touching the end of one", 20, 25, 4},
		{"touching the start of one", 25, 30, 4},
		{"touching both neighbours", 40, 50, 3},
		{"overlapping one", 15, 25, 4},
		{"inside one", 12, 18, 4},
		{"spanning several", 15, 75, 1},
		{"covering all", 0, 100, 1},
		{"spanning several, ending in a gap", 35, 65, 3},
	}
	for _, tc := range cases {
		var s intervalSet
		ref := make([]bool, 100)
		for _, iv := range start {
			s.add(iv.start, iv.end)
			for x := iv.start; x < iv.end; x++ {
				ref[x] = true
			}
		}
		s.add(tc.start, tc.end)
		for x := tc.start; x < tc.end; x++ {
			ref[x] = true
		}
		if got := s.count(); got != tc.want {
			t.Errorf("%s: %d intervals %v, want %d", tc.name, got, s.iv, tc.want)
		}
		for x := int64(0); x < 100; x++ {
			if got := s.contains(x, x+1); got != ref[x] {
				t.Errorf("%s: byte %d covered = %v, want %v (set %v)", tc.name, x, got, ref[x], s.iv)
				break
			}
		}
		for i := 1; i < len(s.iv); i++ {
			if s.iv[i-1].end >= s.iv[i].start {
				t.Errorf("%s: intervals %v not sorted and apart", tc.name, s.iv)
				break
			}
		}
	}
}

func TestIntervalSetClear(t *testing.T) {
	var s intervalSet
	s.add(0, 10)
	s.clear()
	if s.contains(0, 1) || s.count() != 0 {
		t.Fatal("clear did not empty the set")
	}
}

// TestIntervalSetQuickVsBitmap checks the interval set against a bitmap
// reference model under random insertions.
func TestIntervalSetQuickVsBitmap(t *testing.T) {
	const size = 4096
	var s intervalSet
	ref := make([]bool, size)
	rng := rand.New(rand.NewSource(42))
	for i := 0; i < 500; i++ {
		a := int64(rng.Intn(size))
		b := a + int64(rng.Intn(64))
		if b > size {
			b = size
		}
		s.add(a, b)
		for j := a; j < b; j++ {
			ref[j] = true
		}
		// Probe random ranges.
		for k := 0; k < 10; k++ {
			x := int64(rng.Intn(size))
			y := x + int64(rng.Intn(64))
			if y > size {
				y = size
			}
			want := true
			for j := x; j < y; j++ {
				if !ref[j] {
					want = false
					break
				}
			}
			if got := s.contains(x, y); got != want {
				t.Fatalf("iteration %d: contains(%d,%d) = %v, want %v", i, x, y, got, want)
			}
		}
	}
}
