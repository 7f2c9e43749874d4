package blockdev

import (
	"sort"
	"sync"
)

// pageSize is the granularity of the in-memory backing store. It is an
// implementation detail of the simulator, unrelated to the file-system page
// size.
const pageSize = 4096

// pageStore is the byte-addressable backing store of a simulated device.
// Unwritten bytes read as zero.
//
// A write hands the store its buffer (the device owns it from submission on),
// so a whole, page-aligned page of it is kept by reference rather than
// copied. The store never writes into a page it did not allocate: a partial
// write over such an adopted page replaces it with a patched copy.
type pageStore struct {
	mu    sync.RWMutex
	pages map[int64]page // page index -> contents
}

// page is one pageSize slice of the store; owned says the store allocated it
// and may patch it in place.
type page struct {
	b     []byte
	owned bool
}

func newPageStore() *pageStore { return &pageStore{pages: make(map[int64]page)} }

func (s *pageStore) writeAt(p []byte, off int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for len(p) > 0 {
		idx := off / pageSize
		in := off - idx*pageSize
		n := pageSize - in
		if int64(len(p)) < n {
			n = int64(len(p))
		}
		if n == pageSize {
			s.pages[idx] = page{b: p[:pageSize:pageSize]}
		} else {
			pg := s.pages[idx]
			if !pg.owned {
				b := make([]byte, pageSize)
				copy(b, pg.b)
				pg = page{b: b, owned: true}
				s.pages[idx] = pg
			}
			copy(pg.b[in:in+n], p[:n])
		}
		p = p[n:]
		off += n
	}
}

func (s *pageStore) readAt(p []byte, off int64) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	for len(p) > 0 {
		idx := off / pageSize
		in := off - idx*pageSize
		n := pageSize - in
		if int64(len(p)) < n {
			n = int64(len(p))
		}
		if pg := s.pages[idx].b; pg != nil {
			copy(p[:n], pg[in:in+n])
		} else {
			for i := int64(0); i < n; i++ {
				p[i] = 0
			}
		}
		p = p[n:]
		off += n
	}
}

// interval is a half-open byte range [start, end).
type interval struct{ start, end int64 }

// intervalSet is a sorted, coalesced set of non-overlapping intervals. It
// tracks which byte ranges of a device are durable, so tests and the MDS can
// assert the ordered-write invariant ("no committed extent without durable
// data").
type intervalSet struct {
	mu sync.RWMutex
	iv []interval // sorted by start, non-overlapping, non-adjacent
}

// add inserts [start, end) into the set, coalescing neighbours. It edits the
// slice in place: the intervals [i, j) it absorbs collapse into one.
func (s *intervalSet) add(start, end int64) {
	if end <= start {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	// Find the first interval whose end >= start (candidate for merge).
	i := sort.Search(len(s.iv), func(i int) bool { return s.iv[i].end >= start })
	j := i
	for j < len(s.iv) && s.iv[j].start <= end {
		if s.iv[j].start < start {
			start = s.iv[j].start
		}
		if s.iv[j].end > end {
			end = s.iv[j].end
		}
		j++
	}
	if i == j { // nothing absorbed: open a slot at i
		s.iv = append(s.iv, interval{})
		copy(s.iv[i+1:], s.iv[i:])
	} else if j > i+1 { // several absorbed: close the gap behind i
		s.iv = append(s.iv[:i+1], s.iv[j:]...)
	}
	s.iv[i] = interval{start, end}
}

// contains reports whether [start, end) is fully covered.
func (s *intervalSet) contains(start, end int64) bool {
	if end <= start {
		return true
	}
	s.mu.RLock()
	defer s.mu.RUnlock()
	i := sort.Search(len(s.iv), func(i int) bool { return s.iv[i].end > start })
	return i < len(s.iv) && s.iv[i].start <= start && s.iv[i].end >= end
}

// count returns the number of disjoint intervals (for tests).
func (s *intervalSet) count() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.iv)
}

// clear drops all intervals.
func (s *intervalSet) clear() {
	s.mu.Lock()
	s.iv = nil
	s.mu.Unlock()
}
