// Package alloc implements the MDS's physical space management: the storage
// pool is divided into allocation groups (AGs), each with its own B+ tree of
// free extents (§V-A of the paper). The AG set applies a round-robin
// strategy across groups, which is precisely why concurrent clients get
// interleaved physical addresses without space delegation — the scatter that
// Figure 4/5 show and that delegation (contiguous per-client chunks) fixes.
package alloc

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"redbud/internal/bptree"
)

// Errors returned by allocators.
var (
	ErrNoSpace    = errors.New("alloc: no space")
	ErrBadFree    = errors.New("alloc: freeing unallocated or overlapping range")
	ErrBadRequest = errors.New("alloc: invalid request")
)

// Span is a contiguous physical range on one device.
type Span struct {
	Dev int
	Off int64
	Len int64
}

// End returns the first byte past the span.
func (s Span) End() int64 { return s.Off + s.Len }

func (s Span) String() string { return fmt.Sprintf("dev%d[%d+%d]", s.Dev, s.Off, s.Len) }

// Group is one allocation group: a contiguous device region with a B+ tree
// of free extents keyed by start offset.
type Group struct {
	dev        int
	start, end int64

	mu        sync.Mutex
	free      *bptree.Tree // start -> length
	freeBytes int64
	rotor     int64 // next-fit hint: end of the last allocation
}

// NewGroup returns a group covering [start, end) of device dev, fully free.
func NewGroup(dev int, start, end int64) *Group {
	if end <= start {
		panic("alloc: empty group")
	}
	g := &Group{dev: dev, start: start, end: end, free: bptree.New(), rotor: start}
	g.free.Put(start, end-start)
	g.freeBytes = end - start
	return g
}

// Dev returns the device this group manages.
func (g *Group) Dev() int { return g.dev }

// Bounds returns the [start, end) range of the group.
func (g *Group) Bounds() (int64, int64) { return g.start, g.end }

// FreeBytes returns the total free space.
func (g *Group) FreeBytes() int64 {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.freeBytes
}

// FreeExtents returns the number of disjoint free extents (a fragmentation
// measure).
func (g *Group) FreeExtents() int {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.free.Len()
}

// Alloc carves size bytes out of the group, preferring space at or after
// hint (pass a negative hint to use the group's next-fit rotor). Allocation
// is first-fit from the hint with wrap-around.
func (g *Group) Alloc(size, hint int64) (Span, error) {
	if size <= 0 {
		return Span{}, fmt.Errorf("%w: size %d", ErrBadRequest, size)
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	if size > g.freeBytes {
		return Span{}, fmt.Errorf("%w: want %d, free %d", ErrNoSpace, size, g.freeBytes)
	}
	if hint < 0 {
		hint = g.rotor
	}

	// If the hint falls inside a free extent with enough room after it,
	// allocate exactly at the hint for physical continuity.
	if fs, fl, ok := g.free.Floor(hint); ok && fs+fl > hint && fs+fl-hint >= size {
		g.take(fs, fl, hint, size)
		g.rotor = hint + size
		return Span{Dev: g.dev, Off: hint, Len: size}, nil
	}

	// First fit scanning up from the hint.
	if sp, ok := g.scan(hint, size); ok {
		return sp, nil
	}
	// Wrap around.
	if sp, ok := g.scan(g.start, size); ok {
		return sp, nil
	}
	return Span{}, fmt.Errorf("%w: want %d contiguous, free %d fragmented over %d extents",
		ErrNoSpace, size, g.freeBytes, g.free.Len())
}

// scan finds the first free extent at or after from with room for size.
// Caller holds g.mu.
func (g *Group) scan(from, size int64) (Span, bool) {
	var found bool
	var fs, fl int64
	g.free.AscendFrom(from, func(k, v int64) bool {
		if v >= size {
			fs, fl, found = k, v, true
			return false
		}
		return true
	})
	if !found {
		return Span{}, false
	}
	g.take(fs, fl, fs, size)
	g.rotor = fs + size
	return Span{Dev: g.dev, Off: fs, Len: size}, true
}

// take removes [at, at+size) from the free extent [fs, fs+fl). Caller holds
// g.mu and guarantees containment.
func (g *Group) take(fs, fl, at, size int64) {
	g.free.Delete(fs)
	if at > fs {
		g.free.Put(fs, at-fs)
	}
	if rem := fs + fl - (at + size); rem > 0 {
		g.free.Put(at+size, rem)
	}
	g.freeBytes -= size
}

// Reserve claims exactly [off, off+n), failing if any part is already
// allocated. Journal replay uses this to rebuild occupancy.
func (g *Group) Reserve(off, n int64) error {
	if n <= 0 || off < g.start || off+n > g.end {
		return fmt.Errorf("%w: reserve [%d+%d) outside group [%d,%d)", ErrBadRequest, off, n, g.start, g.end)
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	fs, fl, ok := g.free.Floor(off)
	if !ok || fs+fl < off+n {
		return fmt.Errorf("%w: [%d+%d) not free", ErrNoSpace, off, n)
	}
	g.take(fs, fl, off, n)
	return nil
}

// FreeSpan returns [off, off+n) to the pool, coalescing with neighbours.
// Freeing a range that overlaps free space is an error (double free).
func (g *Group) FreeSpan(off, n int64) error {
	if n <= 0 || off < g.start || off+n > g.end {
		return fmt.Errorf("%w: [%d+%d) outside group [%d,%d)", ErrBadFree, off, n, g.start, g.end)
	}
	g.mu.Lock()
	defer g.mu.Unlock()

	if ps, pl, ok := g.free.Floor(off); ok && ps+pl > off {
		return fmt.Errorf("%w: [%d+%d) overlaps free [%d+%d)", ErrBadFree, off, n, ps, pl)
	}
	if ns, _, ok := g.free.Ceil(off); ok && ns < off+n {
		return fmt.Errorf("%w: [%d+%d) overlaps free at %d", ErrBadFree, off, n, ns)
	}

	start, end := off, off+n
	if ps, pl, ok := g.free.Floor(off); ok && ps+pl == off {
		start = ps
		g.free.Delete(ps)
	}
	if ns, nl, ok := g.free.Ceil(end); ok && ns == end {
		end += nl
		g.free.Delete(ns)
	}
	g.free.Put(start, end-start)
	g.freeBytes += n
	return nil
}

// contains reports whether the span belongs to this group.
func (g *Group) contains(sp Span) bool {
	return sp.Dev == g.dev && sp.Off >= g.start && sp.End() <= g.end
}

// ---------------------------------------------------------------------------

// Strategy selects the allocation group for a request.
type Strategy int

// RoundRobin rotates across groups per request — the paper's default and the
// only strategy. Under concurrent clients this interleaves their space; the
// group order decides where consecutive requests land (NewShardAGSet puts
// them on different disks).
const RoundRobin Strategy = 0

// AGSet is the MDS-side collection of allocation groups.
type AGSet struct {
	groups []*Group
	rotor  atomic.Uint64
}

// NewAGSet builds a set over the given groups, taken in the order given;
// allocation always rotates round-robin across them. The Strategy argument is
// ignored: it, Strategy and RoundRobin stay only because the repository
// benchmark's ledger calls NewAGSet(alloc.RoundRobin, …), and they go when
// that call does.
func NewAGSet(_ Strategy, groups ...*Group) *AGSet {
	if len(groups) == 0 {
		panic("alloc: empty AG set")
	}
	return &AGSet{groups: groups}
}

// carve cuts device dev's [lo, hi) into n equal groups; the last one takes
// the remainder.
func carve(dev int, lo, hi int64, n int) []*Group {
	if n <= 0 {
		panic("alloc: need at least one AG")
	}
	per := (hi - lo) / int64(n)
	groups := make([]*Group, 0, n)
	for i := 0; i < n; i++ {
		end := lo + int64(i+1)*per
		if i == n-1 {
			end = hi
		}
		groups = append(groups, NewGroup(dev, lo+int64(i)*per, end))
	}
	return groups
}

// NewUniformAGSet carves device dev's [0, size) into n equal groups.
func NewUniformAGSet(dev int, size int64, n int) *AGSet {
	return NewAGSet(RoundRobin, carve(dev, 0, size, n)...)
}

// NewShardAGSet builds the allocation groups of one metadata shard over a
// shared array of devices identical disks (IDs 0..devices-1) of devSize
// bytes. Every disk is cut into shards equal slices, the last taking the
// remainder, and the shard's slice of each disk into perDevice groups. The
// groups are listed group index first — group 0 of every disk, then group 1
// of every disk — so the rotor sends consecutive allocations (two clients'
// delegation chunks, two layout-gets) to different disks instead of to the
// two halves of one. Shards are independent metadata authorities over one
// array, so their sets must never overlap; with one shard the slice is the
// whole disk.
func NewShardAGSet(devices int, devSize int64, shard, shards, perDevice int) *AGSet {
	if shards < 1 || shard < 0 || shard >= shards {
		panic(fmt.Sprintf("alloc: shard %d of %d", shard, shards))
	}
	per := devSize / int64(shards)
	lo, hi := int64(shard)*per, int64(shard+1)*per
	if shard == shards-1 {
		hi = devSize
	}
	byDev := make([][]*Group, devices)
	for d := range byDev {
		byDev[d] = carve(d, lo, hi, perDevice)
	}
	groups := make([]*Group, 0, devices*perDevice)
	for i := 0; i < perDevice; i++ {
		for _, dev := range byDev {
			groups = append(groups, dev[i])
		}
	}
	return NewAGSet(RoundRobin, groups...)
}

// Groups returns the member groups.
func (s *AGSet) Groups() []*Group { return s.groups }

// FreeBytes returns the total free space across all groups.
func (s *AGSet) FreeBytes() int64 {
	var total int64
	for _, g := range s.groups {
		total += g.FreeBytes()
	}
	return total
}

// Alloc allocates one contiguous span of size bytes for owner: from the group
// the rotor names, falling back to the next groups in order when it is full.
func (s *AGSet) Alloc(owner string, size int64) (Span, error) {
	n := len(s.groups)
	first := int((s.rotor.Add(1) - 1) % uint64(n))
	var lastErr error = ErrNoSpace
	for i := 0; i < n; i++ {
		sp, err := s.groups[(first+i)%n].Alloc(size, -1)
		if err == nil {
			return sp, nil
		}
		lastErr = err
	}
	return Span{}, lastErr
}

// AllocExtents allocates size bytes as one or more spans. Used for
// large-file layouts that no single free extent can satisfy.
func (s *AGSet) AllocExtents(owner string, size int64) ([]Span, error) {
	if size <= 0 {
		return nil, fmt.Errorf("%w: size %d", ErrBadRequest, size)
	}
	var out []Span
	var maxSpan int64 // 0 until fragmentation forces smaller chunks
	remaining := size
	for remaining > 0 {
		chunk := remaining
		if maxSpan > 0 && chunk > maxSpan {
			chunk = maxSpan
		}
		sp, err := s.Alloc(owner, chunk)
		if err != nil {
			// Retry with half the chunk to work around fragmentation.
			if chunk > 1<<20 {
				maxSpan = chunk / 2
				continue
			}
			// Roll back partial allocations.
			for _, done := range out {
				_ = s.FreeSpan(done)
			}
			return nil, err
		}
		out = append(out, sp)
		remaining -= sp.Len
	}
	return out, nil
}

// FreeSpan returns a span to its owning group.
func (s *AGSet) FreeSpan(sp Span) error {
	for _, g := range s.groups {
		if g.contains(sp) {
			return g.FreeSpan(sp.Off, sp.Len)
		}
	}
	return fmt.Errorf("%w: %v not in any group", ErrBadFree, sp)
}

// ReserveSpan claims an exact span in its owning group (journal replay).
func (s *AGSet) ReserveSpan(sp Span) error {
	for _, g := range s.groups {
		if g.contains(sp) {
			return g.Reserve(sp.Off, sp.Len)
		}
	}
	return fmt.Errorf("%w: %v not in any group", ErrBadRequest, sp)
}
