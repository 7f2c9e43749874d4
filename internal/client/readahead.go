package client

import (
	"redbud/internal/stats"
)

// Read-ahead: when a handle reads sequentially, a background prefetch pulls
// the next window of the file into the page cache, so the next ReadAt is a
// memory hit instead of a disk round trip. This is the "active file system"
// capability §II of the paper uses to motivate daemon-driven designs.
//
// Correctness: the prefetcher snapshots the file's write generation before
// touching the device and never installs pages that appeared (or could have
// been superseded) in the meantime — a concurrent write always wins.

type raStats struct {
	triggered stats.Counter
	pages     stats.Counter
}

// maybeReadAhead is called at the end of a successful ReadAt covering
// [off, off+n). Caller must NOT hold fs.mu.
func (c *Client) maybeReadAhead(fs *fileState, off, n int64) {
	window := c.cfg.ReadAhead
	if window <= 0 {
		return
	}
	fs.mu.Lock()
	sequential := off == fs.raNext && off != 0 || (off == 0 && n > 0)
	fs.raNext = off + n
	start := fs.raNext
	// Write-behind data is not on the array yet: a prefetch now could cache
	// what it is about to replace.
	if !sequential || fs.raInflight || fs.flushing || start >= fs.size {
		fs.mu.Unlock()
		return
	}
	end := min64(start+window, fs.size)
	// Snapshot the extent mapping and the write generation.
	type fetch struct {
		dev     uint32
		volOff  int64
		fileOff int64
		ln      int64
	}
	var fetches []fetch
	cur := start
	for _, e := range fs.extents {
		if e.End() <= cur || e.FileOff >= end {
			continue
		}
		s, t := max64(e.FileOff, cur), min64(e.End(), end)
		fetches = append(fetches, fetch{dev: e.Dev, volOff: e.VolOff + (s - e.FileOff), fileOff: s, ln: t - s})
	}
	if len(fetches) == 0 {
		fs.mu.Unlock()
		return
	}
	gen := fs.writeGen
	fs.raInflight = true
	fs.mu.Unlock()

	c.ra.triggered.Inc()
	go func() {
		defer func() {
			fs.mu.Lock()
			fs.raInflight = false
			fs.mu.Unlock()
		}()
		for _, ft := range fetches {
			dev, err := c.dev(ft.dev)
			if err != nil {
				return
			}
			data, err := dev.Read(ft.volOff, ft.ln)
			if err != nil {
				return
			}
			fs.mu.Lock()
			if fs.writeGen != gen {
				// A write raced the prefetch; discard everything —
				// the cache may only ever serve data at least as new
				// as what the writer produced.
				fs.mu.Unlock()
				return
			}
			// Install only full, absent pages.
			for pg := (ft.fileOff + PageSize - 1) / PageSize; (pg+1)*PageSize <= ft.fileOff+ft.ln; pg++ {
				if fs.pages[pg] != nil {
					continue
				}
				page := make([]byte, PageSize)
				copy(page, data[pg*PageSize-ft.fileOff:])
				fs.pages[pg] = page
				c.ra.pages.Inc()
			}
			fs.mu.Unlock()
		}
	}()
}

// ReadAheadStats returns (prefetches triggered, pages installed).
func (c *Client) ReadAheadStats() (int64, int64) {
	return c.ra.triggered.Load(), c.ra.pages.Load()
}
