package alloc

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"testing"
)

func TestGroupAllocBasic(t *testing.T) {
	g := NewGroup(0, 0, 1<<20)
	sp, err := g.Alloc(4096, -1)
	if err != nil {
		t.Fatal(err)
	}
	if sp.Dev != 0 || sp.Off != 0 || sp.Len != 4096 {
		t.Fatalf("span = %v", sp)
	}
	if g.FreeBytes() != 1<<20-4096 {
		t.Fatalf("free = %d", g.FreeBytes())
	}
	// Next-fit rotor: successive allocations are contiguous.
	sp2, err := g.Alloc(4096, -1)
	if err != nil {
		t.Fatal(err)
	}
	if sp2.Off != 4096 {
		t.Fatalf("rotor allocation at %d, want 4096", sp2.Off)
	}
}

func TestGroupAllocAtHint(t *testing.T) {
	g := NewGroup(2, 0, 1<<20)
	sp, err := g.Alloc(100, 5000)
	if err != nil {
		t.Fatal(err)
	}
	if sp.Off != 5000 {
		t.Fatalf("hint ignored: off = %d", sp.Off)
	}
	if sp.Dev != 2 {
		t.Fatalf("dev = %d", sp.Dev)
	}
	// Free space before the hint is preserved.
	sp2, err := g.Alloc(5000, 0)
	if err != nil {
		t.Fatal(err)
	}
	if sp2.Off != 0 {
		t.Fatalf("pre-hint space lost: off = %d", sp2.Off)
	}
}

func TestGroupAllocWraps(t *testing.T) {
	g := NewGroup(0, 0, 10000)
	if _, err := g.Alloc(4000, 8000); err != nil {
		t.Fatalf("wrap allocation failed: %v", err)
	}
}

func TestGroupAllocErrors(t *testing.T) {
	g := NewGroup(0, 0, 1000)
	if _, err := g.Alloc(0, -1); !errors.Is(err, ErrBadRequest) {
		t.Fatalf("zero size err = %v", err)
	}
	if _, err := g.Alloc(2000, -1); !errors.Is(err, ErrNoSpace) {
		t.Fatalf("oversize err = %v", err)
	}
	// Fragment the space, then ask for more than any extent holds.
	a, _ := g.Alloc(400, 0)
	b, _ := g.Alloc(400, -1)
	if err := g.FreeSpan(a.Off, a.Len); err != nil {
		t.Fatal(err)
	}
	_ = b
	if _, err := g.Alloc(500, -1); !errors.Is(err, ErrNoSpace) {
		t.Fatalf("fragmented alloc err = %v", err)
	}
}

func TestGroupFreeCoalesce(t *testing.T) {
	g := NewGroup(0, 0, 1<<20)
	spans := make([]Span, 4)
	for i := range spans {
		sp, err := g.Alloc(1000, -1)
		if err != nil {
			t.Fatal(err)
		}
		spans[i] = sp
	}
	// Free middle two in non-adjacent order; they must coalesce.
	if err := g.FreeSpan(spans[1].Off, spans[1].Len); err != nil {
		t.Fatal(err)
	}
	if err := g.FreeSpan(spans[2].Off, spans[2].Len); err != nil {
		t.Fatal(err)
	}
	// One free extent for [1000,3000) plus the tail extent.
	if n := g.FreeExtents(); n != 2 {
		t.Fatalf("free extents = %d, want 2", n)
	}
	// The coalesced hole can hold a 2000-byte allocation.
	sp, err := g.Alloc(2000, 1000)
	if err != nil || sp.Off != 1000 {
		t.Fatalf("coalesced alloc = %v, %v", sp, err)
	}
}

func TestGroupDoubleFree(t *testing.T) {
	g := NewGroup(0, 0, 1<<20)
	sp, _ := g.Alloc(1000, -1)
	if err := g.FreeSpan(sp.Off, sp.Len); err != nil {
		t.Fatal(err)
	}
	if err := g.FreeSpan(sp.Off, sp.Len); !errors.Is(err, ErrBadFree) {
		t.Fatalf("double free err = %v", err)
	}
	if err := g.FreeSpan(sp.Off+100, 50); !errors.Is(err, ErrBadFree) {
		t.Fatalf("partial overlap free err = %v", err)
	}
	if err := g.FreeSpan(-5, 10); !errors.Is(err, ErrBadFree) {
		t.Fatalf("out-of-group free err = %v", err)
	}
}

func TestGroupFullCycle(t *testing.T) {
	g := NewGroup(0, 0, 100000)
	rng := rand.New(rand.NewSource(99))
	live := map[int64]Span{}
	for i := 0; i < 5000; i++ {
		if rng.Intn(2) == 0 || len(live) == 0 {
			sp, err := g.Alloc(int64(rng.Intn(200)+1), -1)
			if errors.Is(err, ErrNoSpace) {
				continue
			}
			if err != nil {
				t.Fatal(err)
			}
			// No overlap with any live span.
			for _, o := range live {
				if sp.Off < o.End() && o.Off < sp.End() {
					t.Fatalf("overlap: %v and %v", sp, o)
				}
			}
			live[sp.Off] = sp
		} else {
			for k, sp := range live {
				if err := g.FreeSpan(sp.Off, sp.Len); err != nil {
					t.Fatal(err)
				}
				delete(live, k)
				break
			}
		}
	}
	// Free everything; the group must return to a single extent.
	for _, sp := range live {
		if err := g.FreeSpan(sp.Off, sp.Len); err != nil {
			t.Fatal(err)
		}
	}
	if g.FreeBytes() != 100000 {
		t.Fatalf("leaked space: free = %d", g.FreeBytes())
	}
	if g.FreeExtents() != 1 {
		t.Fatalf("space not coalesced: %d extents", g.FreeExtents())
	}
}

func TestGroupConcurrent(t *testing.T) {
	g := NewGroup(0, 0, 10<<20)
	var mu sync.Mutex
	seen := map[int64]bool{}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				sp, err := g.Alloc(4096, -1)
				if err != nil {
					t.Error(err)
					return
				}
				mu.Lock()
				if seen[sp.Off] {
					t.Errorf("duplicate allocation at %d", sp.Off)
				}
				seen[sp.Off] = true
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	if g.FreeBytes() != 10<<20-800*4096 {
		t.Fatalf("free = %d", g.FreeBytes())
	}
}

func TestUniformAGSet(t *testing.T) {
	s := NewUniformAGSet(0, 1000, 4)
	if len(s.Groups()) != 4 {
		t.Fatalf("groups = %d", len(s.Groups()))
	}
	start, end := s.Groups()[3].Bounds()
	if start != 750 || end != 1000 {
		t.Fatalf("last group = [%d,%d)", start, end)
	}
	if s.FreeBytes() != 1000 {
		t.Fatalf("free = %d", s.FreeBytes())
	}
}

// TestShardAGSet pins the shared-array layout every harness and the MDS
// daemon build from: one shard owns each disk in halves, listed group index
// first (the first half of every disk, then the second halves); several
// shards tile every disk with no overlap and no gap.
func TestShardAGSet(t *testing.T) {
	type bounds struct {
		dev    int
		lo, hi int64
	}
	layout := func(s *AGSet) []bounds {
		var out []bounds
		for _, g := range s.Groups() {
			lo, hi := g.Bounds()
			out = append(out, bounds{g.Dev(), lo, hi})
		}
		return out
	}
	got := layout(NewShardAGSet(2, 1001, 0, 1, 2))
	want := []bounds{{0, 0, 500}, {1, 0, 500}, {0, 500, 1001}, {1, 500, 1001}}
	if len(got) != len(want) {
		t.Fatalf("single shard: %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("single shard: %v, want %v", got, want)
		}
	}

	const shards, devSize = 3, 1000
	next := []int64{0, 0} // per device: where the previous shard's slice ended
	for sh := 0; sh < shards; sh++ {
		s := NewShardAGSet(2, devSize, sh, shards, 2)
		if len(s.Groups()) != 4 {
			t.Fatalf("shard %d: %d groups, want 4", sh, len(s.Groups()))
		}
		for _, b := range layout(s) {
			if b.lo != next[b.dev] || b.hi <= b.lo {
				t.Fatalf("shard %d: group %+v does not continue device %d at %d", sh, b, b.dev, next[b.dev])
			}
			next[b.dev] = b.hi
		}
	}
	if next[0] != devSize || next[1] != devSize {
		t.Fatalf("shards tile the devices up to %v, want %d", next, devSize)
	}
}

// TestShardAGSetSpreadsAcrossDevices: successive allocations from a shard's
// set visit every disk before any disk repeats, so concurrent clients'
// delegation chunks do not share a spindle while another sits idle.
func TestShardAGSetSpreadsAcrossDevices(t *testing.T) {
	const devices = 4
	for _, shards := range []int{1, 2} {
		s := NewShardAGSet(devices, 1<<30, shards-1, shards, 2)
		for round := 0; round < 3; round++ {
			seen := map[int]bool{}
			for i := 0; i < devices; i++ {
				sp, err := s.Alloc(fmt.Sprintf("client-%d", i), 1<<20)
				if err != nil {
					t.Fatal(err)
				}
				if seen[sp.Dev] {
					t.Fatalf("%d shards, round %d: allocation %d repeats dev%d before every disk was used (%v)",
						shards, round, i, sp.Dev, seen)
				}
				seen[sp.Dev] = true
			}
		}
	}
}

func TestAGSetRoundRobinInterleaves(t *testing.T) {
	s := NewUniformAGSet(0, 1<<20, 4)
	devs := map[int64]bool{}
	for i := 0; i < 4; i++ {
		sp, err := s.Alloc("client", 100)
		if err != nil {
			t.Fatal(err)
		}
		devs[sp.Off/(1<<18)] = true // which quarter
	}
	if len(devs) != 4 {
		t.Fatalf("round robin used %d groups, want 4", len(devs))
	}
}

func TestAGSetFallbackWhenGroupFull(t *testing.T) {
	s := NewUniformAGSet(0, 4000, 2)
	if _, err := s.Alloc("bob", 2000); err != nil { // fills group 0
		t.Fatal(err)
	}
	if _, err := s.Alloc("bob", 1500); err != nil { // group 1
		t.Fatal(err)
	}
	// The rotor is back at the full group 0: the request must fall back to
	// group 1.
	sp, err := s.Alloc("bob", 400)
	if err != nil {
		t.Fatalf("no fallback: %v", err)
	}
	if sp.Off < 2000 {
		t.Fatalf("fallback allocation %v, want it in group 1", sp)
	}
	if _, err := s.Alloc("bob", 200); !errors.Is(err, ErrNoSpace) {
		t.Fatalf("exhausted set err = %v", err)
	}
}

func TestAllocExtentsSplitsAcrossGroups(t *testing.T) {
	s := NewUniformAGSet(0, 8<<20, 4)        // 2 MiB per group
	spans, err := s.AllocExtents("c", 5<<20) // bigger than any group
	if err != nil {
		t.Fatal(err)
	}
	var total int64
	for _, sp := range spans {
		total += sp.Len
	}
	if total != 5<<20 {
		t.Fatalf("allocated %d, want %d", total, 5<<20)
	}
	if len(spans) < 3 {
		t.Fatalf("expected multi-span allocation, got %d spans", len(spans))
	}
	for _, sp := range spans {
		if err := s.FreeSpan(sp); err != nil {
			t.Fatal(err)
		}
	}
	if s.FreeBytes() != 8<<20 {
		t.Fatalf("leak after free-all: %d", s.FreeBytes())
	}
}

func TestAllocExtentsRollbackOnFailure(t *testing.T) {
	s := NewUniformAGSet(0, 1<<20, 1)
	before := s.FreeBytes()
	if _, err := s.AllocExtents("c", 2<<20); err == nil {
		t.Fatal("oversized AllocExtents succeeded")
	}
	if s.FreeBytes() != before {
		t.Fatalf("partial allocation leaked: %d != %d", s.FreeBytes(), before)
	}
	if _, err := s.AllocExtents("c", 0); !errors.Is(err, ErrBadRequest) {
		t.Fatalf("zero size err = %v", err)
	}
}

func TestFreeSpanUnknown(t *testing.T) {
	s := NewUniformAGSet(0, 1000, 1)
	if err := s.FreeSpan(Span{Dev: 9, Off: 0, Len: 10}); !errors.Is(err, ErrBadFree) {
		t.Fatalf("unknown span free err = %v", err)
	}
}

func TestSpanHelpers(t *testing.T) {
	sp := Span{Dev: 1, Off: 100, Len: 50}
	if sp.End() != 150 {
		t.Fatalf("end = %d", sp.End())
	}
	if sp.String() == "" {
		t.Fatal("empty String")
	}
}

func TestEmptyConstructorsPanic(t *testing.T) {
	for name, fn := range map[string]func(){
		"NewGroup":        func() { NewGroup(0, 10, 10) },
		"NewAGSet":        func() { NewAGSet(RoundRobin) },
		"NewUniformAGSet": func() { NewUniformAGSet(0, 100, 0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s did not panic", name)
				}
			}()
			fn()
		}()
	}
}
