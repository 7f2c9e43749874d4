package client

import (
	"fmt"
	"sync"
	"time"

	"redbud/internal/fsapi"
	"redbud/internal/meta"
	"redbud/internal/obs"
	"redbud/internal/proto"
)

// maxCachedPages bounds each file's page cache; once the file quiesces
// (no in-flight writes) an oversized cache is dropped. The data is already
// durable on the shared array at that point and reads re-fetch it, so this
// is purely a memory bound ("drop-behind").
const maxCachedPages = 1024

// fileState is the client-side inode: shared by every open handle of a file.
type fileState struct {
	id   meta.FileID
	mu   sync.Mutex
	cond *sync.Cond

	size          int64 // local view, includes uncommitted writes
	committedSize int64 // as last acknowledged by the MDS
	mtime         time.Time

	// extents is the locally known layout, sorted by FileOff: MDS-granted
	// extents plus delegation-carved ones.
	extents []meta.Extent
	// pages caches file data at PageSize granularity.
	pages map[int64][]byte

	// deferred is the write-behind list: writes already acknowledged to the
	// application that still need space from the MDS (or queue behind one
	// that does, so device writes keep application order), oldest first.
	// flushing is true from the first deferred write until the file's
	// write-back routine has emptied the list and gone; the routine owns
	// whatever it took off the list.
	deferred   []fileWrite
	deferredAt time.Time // first byte of the current list (write.behind span)
	flushing   bool
	// session counts the MDS sessions this file's uncommitted state has
	// outlived; a layout-get that returns into a later session than it left
	// in belongs to a dead one and is dropped (reestablish).
	session uint64

	pendingWrites int // in-flight device writes
	writeErr      error
	commitErr     error
	dirtyMeta     bool   // something to commit
	commitGen     uint64 // bumped by every finished commit
	refs          int
	enqAt         time.Time // first enqueue of the current queue residency (tracing)
	// committing is set from a commit's snapshot (buildCommit) to its reply
	// (finishCommit): one commit of the file is in flight at a time. recommit
	// says a commit daemon left the file to that commit.
	committing, recommit bool

	// File delegation (namecache.go). deleg, recalled and path are guarded by
	// Client.mu, not mu: deleg is set while this client holds the MDS
	// delegation on the inode — its attributes then change by this client's
	// commits only — recalled once one has been taken back (for the open
	// span's tag), and path is the dentry-cache key the leaf is cached under,
	// if any. attrMTime (under mu) is the mtime the MDS has: what the grant
	// said, advanced by every acknowledged commit the way the MDS applies it.
	deleg, recalled bool
	path            string
	attrMTime       time.Time
}

func newFileState(id meta.FileID, size int64) *fileState {
	fs := &fileState{id: id, size: size, committedSize: size, pages: make(map[int64][]byte)}
	fs.cond = sync.NewCond(&fs.mu)
	return fs
}

// waitWritesLocked blocks until every acknowledged write is durable: nothing
// write-behind and no device write in flight. This is the ordered-write
// barrier — a commit may only name, and a device read may only fetch, what
// has passed it. Caller holds fs.mu.
func (fs *fileState) waitWritesLocked() {
	for fs.flushing || fs.pendingWrites > 0 {
		fs.cond.Wait()
	}
}

// stageLocked is the page-cache half of a write: the bytes become readable
// and the file dirty. Caller holds fs.mu.
func (fs *fileState) stageLocked(p []byte, off int64, now time.Time) {
	fs.cachePagesLocked(p, off)
	if end := off + int64(len(p)); end > fs.size {
		fs.size = end
	}
	fs.mtime = now
	fs.dirtyMeta = true
}

// dropDeferredLocked empties the write-behind list and returns how many
// bytes it held (the caller gives them back to the dirty window). Caller
// holds fs.mu.
func (fs *fileState) dropDeferredLocked() int64 {
	n := writeBytes(fs.deferred)
	fs.deferred, fs.deferredAt = nil, time.Time{}
	return n
}

// gapsLocked returns sub-ranges of [off, end) not covered by extents.
func (fs *fileState) gapsLocked(off, end int64) [][2]int64 {
	var out [][2]int64
	cur := off
	for _, e := range fs.extents {
		if e.End() <= cur {
			continue
		}
		if e.FileOff >= end {
			break
		}
		if e.FileOff > cur {
			out = append(out, [2]int64{cur, e.FileOff})
		}
		if e.End() > cur {
			cur = e.End()
		}
	}
	if cur < end {
		out = append(out, [2]int64{cur, end})
	}
	return out
}

// overlapsKnownLocked reports whether e overlaps any locally known extent.
func (fs *fileState) overlapsKnownLocked(e meta.Extent) bool {
	for _, have := range fs.extents {
		if e.FileOff < have.End() && have.FileOff < e.End() {
			return true
		}
	}
	return false
}

// insertExtentLocked merges a new extent, skipping overlaps with known ones.
func (fs *fileState) insertExtentLocked(e meta.Extent) {
	if fs.overlapsKnownLocked(e) {
		return // already covered (MDS reuses extents on overwrite)
	}
	i := 0
	for i < len(fs.extents) && fs.extents[i].FileOff < e.FileOff {
		i++
	}
	fs.extents = append(fs.extents, meta.Extent{})
	copy(fs.extents[i+1:], fs.extents[i:])
	fs.extents[i] = e
}

// cachePagesLocked caches the pages [off, off+len(p)) covers. p is the
// write's private copy, the one the devices are handed too, and a cached page
// is never written into — the rule blockdev's page store keeps — so the two
// can share it: a fully covered page is a slice of p, and a partial write over
// a cached page replaces that page with a patched clone. An uncached partially
// covered page is cached only when the uncovered remainder lies beyond the
// current end of file — those bytes are genuinely zero, so no data is
// fabricated. Other uncached partial pages are written through: caching them
// would invent zeros over real on-disk data.
func (fs *fileState) cachePagesLocked(p []byte, off int64) {
	end := off + int64(len(p))
	for pg := off / PageSize; pg*PageSize < end; pg++ {
		pstart, pend := pg*PageSize, (pg+1)*PageSize
		cstart, cend := max64(pstart, off), min64(pend, end)
		if cstart == pstart && cend == pend {
			fs.pages[pg] = p[cstart-off : cend-off : cend-off]
			continue
		}
		page := fs.pages[pg]
		switch {
		case page != nil:
			page = append([]byte(nil), page...)
		case cstart == pstart && cend >= fs.size: // rest is past EOF
			page = make([]byte, PageSize)
		default:
			continue // partial mid-file, uncached: write through
		}
		copy(page[cstart-pstart:cend-pstart], p[cstart-off:cend-off])
		fs.pages[pg] = page
	}
}

// dropCacheIfOversizedLocked implements drop-behind.
func (fs *fileState) dropCacheIfOversizedLocked() {
	if !fs.flushing && fs.pendingWrites == 0 && len(fs.pages) > maxCachedPages {
		fs.pages = make(map[int64][]byte)
	}
}

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}

func min64(a, b int64) int64 {
	if a < b {
		return a
	}
	return b
}

// File is an open handle implementing fsapi.File.
type File struct {
	c      *Client
	fs     *fileState
	closed bool
	mu     sync.Mutex
}

var _ fsapi.File = (*File)(nil)

// WriteAt implements the update operation: data into the cache and out to
// the shared array asynchronously; metadata committed per the client's mode.
func (f *File) WriteAt(p []byte, off int64) (int, error) {
	if _, err := f.writeAt(p, off); err != nil {
		return 0, err
	}
	return len(p), nil
}

// writeAt is WriteAt; staged reports whether the bytes entered the file's
// local state (page cache, size) before any error, which is what Append needs
// to know to roll its reservation back.
func (f *File) writeAt(p []byte, off int64) (staged bool, err error) {
	if len(p) == 0 {
		return false, nil
	}
	if off < 0 {
		return false, fmt.Errorf("client: negative offset %d", off)
	}
	c, fs := f.c, f.fs
	start := c.clk.Now()
	n := int64(len(p))

	fs.mu.Lock()
	if err := fs.writeErr; err != nil {
		fs.mu.Unlock()
		return false, err
	}
	if c.cfg.Mode == DelayedCommit && c.mustDeferLocked(fs, off, off+n) {
		// Write-behind: one private copy of the bytes goes into the cache
		// and onto the file's list; the write-back routine allocates and
		// hands it to the devices.
		fs.mu.Unlock()
		c.admitDirty(n) // blocks while the client's dirty window is full
		data := append([]byte(nil), p...)
		fs.mu.Lock()
		if err := fs.writeErr; err != nil {
			fs.mu.Unlock()
			c.releaseDirty(n)
			return false, err
		}
		fs.stageLocked(data, off, start)
		if len(fs.deferred) == 0 {
			fs.deferredAt = start
		}
		fs.deferred = append(fs.deferred, fileWrite{off: off, data: data})
		if !fs.flushing {
			fs.flushing = true
			c.flushers.Add(1)
			go c.writeBack(fs)
		}
		fs.mu.Unlock()
	} else if err := c.writeOut(fs, []fileWrite{{off: off, data: p}}, false); err != nil {
		return false, err
	}

	// Hand the ordering obligation over (delayed) or carry it here (sync).
	c.st.writes.Inc()
	c.st.bytesWritten.Add(n)
	var werr error
	if c.cfg.Mode == SyncCommit {
		fs.mu.Lock()
		fs.waitWritesLocked() // the spin-until-durable barrier of §III-A
		werr = fs.writeErr
		fs.mu.Unlock()
		if werr == nil {
			werr = c.commitFile(fs)
		}
	} else {
		werr = c.enqueueCommit(fs)
	}
	if c.tracer.Enabled() {
		c.tracer.Record(c.trackApp, obs.SpanAppWrite, 0, start, c.clk.Now())
	}
	c.st.writeLat.Observe(c.clk.Since(start))
	return true, werr
}

// Append writes at the end of file, returning the offset written.
func (f *File) Append(p []byte) (int64, error) {
	fs := f.fs
	fs.mu.Lock()
	off := fs.size
	end := off + int64(len(p))
	fs.size = end // reserve to serialize concurrent appends
	fs.mu.Unlock()
	staged, err := f.writeAt(p, off)
	if err != nil {
		if !staged {
			// Nothing was written: give the reservation back, unless a
			// later append already built on it (then the range stays a
			// hole, which reads as zeros like any other). A commit built in
			// between may have told the MDS the reserved size, so the
			// delegation no longer vouches for it.
			f.c.dropDeleg(fs)
			fs.mu.Lock()
			if fs.size == end {
				fs.size = off
			}
			fs.mu.Unlock()
		}
		return 0, err
	}
	return off, nil
}

// ReadAt serves reads from the page cache, falling back to the shared array
// through the extent map; holes read as zeros. Reads of this client's own
// uncommitted writes are satisfied locally (conflict reads, §V-C NPB);
// another client's writes become visible when its commit lands.
func (f *File) ReadAt(p []byte, off int64) (int, error) {
	c, fs := f.c, f.fs
	if off < 0 {
		return 0, fmt.Errorf("client: negative offset %d", off)
	}
	// Traced, a read is one read.app span with a child per leg it actually
	// took (readTrace); untraced, rt stays zero and nothing reads the clock.
	var rt readTrace
	if c.tracer.Enabled() {
		rt = c.beginRead()
		defer c.endRead(&rt)
	}
	fs.mu.Lock()
	limit := fs.size
	reqEnd := off + int64(len(p))

	// Decide whether to consult the MDS before serving locally: part of
	// the in-bounds range is neither cached nor covered by known extents.
	probe := false
	if len(fs.uncachedRanges(off, min64(reqEnd, limit))) > 0 {
		if holes := fs.gapsLocked(off, min64(reqEnd, limit)); len(holes) > 0 && fs.committedSizeMayCover(holes) {
			probe = true
		}
	}
	if off >= limit && !probe {
		fs.mu.Unlock()
		return 0, nil
	}
	if probe {
		fs.mu.Unlock()
		var lay proto.LayoutResp
		probeStart := c.readLegStart(&rt)
		err := c.callIdem(c.shardFor(fs.id), proto.OpLayoutGet, &proto.LayoutGetReq{
			Owner: c.cfg.Name, File: fs.id, Off: off, Len: reqEnd - off,
		}, &lay)
		c.readLeg(&rt, obs.SpanReadLayout, probeStart)
		fs.mu.Lock()
		if err != nil {
			fs.mu.Unlock()
			return 0, err
		}
		for _, e := range lay.Extents {
			// The commit builder sweeps every uncommitted extent in
			// fs.extents, so a reader caches committed ones only.
			if e.State == meta.StateCommitted {
				fs.insertExtentLocked(e)
			}
		}
		if lay.Size > fs.committedSize {
			fs.committedSize = lay.Size
		}
	}
	if off >= limit {
		fs.mu.Unlock()
		return 0, nil
	}
	n := min64(int64(len(p)), limit-off)
	end := off + n

	missing := fs.uncachedRanges(off, end)
	if len(missing) > 0 {
		// Device reads must observe completed writes: quiesce first.
		barrierStart := c.readLegStart(&rt)
		fs.waitWritesLocked()
		c.readLeg(&rt, obs.SpanReadBarrier, barrierStart)
		missing = fs.uncachedRanges(off, end)
	}
	// Snapshot what each missing range maps to in the known layout.
	type fetch struct {
		dev         uint32
		volOff      int64
		fileOff, ln int64
	}
	var fetches []fetch
	for _, m := range missing {
		for _, e := range fs.extents {
			if e.End() <= m[0] || e.FileOff >= m[1] {
				continue
			}
			s, t := max64(e.FileOff, m[0]), min64(e.End(), m[1])
			fetches = append(fetches, fetch{dev: e.Dev, volOff: e.VolOff + (s - e.FileOff), fileOff: s, ln: t - s})
		}
	}
	// Copy the cached portion while still locked.
	for i := int64(0); i < n; {
		pg := (off + i) / PageSize
		pstart := pg * PageSize
		cstart := off + i
		cend := min64(pstart+PageSize, end)
		if page := fs.pages[pg]; page != nil {
			copy(p[cstart-off:cend-off], page[cstart-pstart:cend-pstart])
		} else {
			for j := cstart; j < cend; j++ {
				p[j-off] = 0 // holes and to-be-fetched: zero first
			}
		}
		i = cend - off
	}
	fs.mu.Unlock()

	// Issue device reads outside the lock.
	if len(fetches) > 0 {
		defer c.readLeg(&rt, obs.SpanReadDevice, c.readLegStart(&rt))
	}
	for _, ft := range fetches {
		dev, err := c.dev(ft.dev)
		if err != nil {
			return 0, err
		}
		data, err := dev.Read(ft.volOff, ft.ln)
		if err != nil {
			return 0, err
		}
		copy(p[ft.fileOff-off:ft.fileOff-off+ft.ln], data)
	}
	c.st.reads.Inc()
	c.st.bytesRead.Add(n)
	return int(n), nil
}

// uncachedRanges returns the sub-ranges of [off, end) not fully served by
// cached pages. Caller holds fs.mu.
func (fs *fileState) uncachedRanges(off, end int64) [][2]int64 {
	var out [][2]int64
	cur := int64(-1)
	for pg := off / PageSize; pg*PageSize < end; pg++ {
		pstart := max64(pg*PageSize, off)
		if fs.pages[pg] == nil {
			if cur < 0 {
				cur = pstart
			}
		} else if cur >= 0 {
			out = append(out, [2]int64{cur, pstart})
			cur = -1
		}
	}
	if cur >= 0 {
		out = append(out, [2]int64{cur, end})
	}
	return out
}

// committedSizeMayCover reports whether any hole could be backed by
// committed data at the MDS (otherwise the layout RPC is pointless).
func (fs *fileState) committedSizeMayCover(holes [][2]int64) bool {
	for _, h := range holes {
		if h[0] < fs.committedSize {
			return true
		}
	}
	return false
}

// Size returns the handle's view of the file size.
func (f *File) Size() int64 {
	f.fs.mu.Lock()
	defer f.fs.mu.Unlock()
	return f.fs.size
}

// Sync flushes data and forces an immediate synchronous commit — the escape
// hatch the paper prescribes for applications that cannot afford the delayed
// window ("applications that cannot afford data loss should explicitly call
// fsync", §III-A).
func (f *File) Sync() error {
	f.c.st.fsyncs.Inc()
	if err := f.c.commitFile(f.fs); err != nil {
		return err
	}
	f.fs.mu.Lock()
	defer f.fs.mu.Unlock()
	return f.fs.commitErr
}

// Close releases the handle. Under delayed commit it returns immediately —
// pending commits continue in the background (the close-latency win of
// §V-C); under sync commit everything is already durable.
func (f *File) Close() error {
	f.mu.Lock()
	if f.closed {
		f.mu.Unlock()
		return fsapi.ErrClosed
	}
	f.closed = true
	f.mu.Unlock()
	start := f.c.clk.Now()
	f.fs.mu.Lock()
	f.fs.refs--
	err := f.fs.writeErr
	f.fs.mu.Unlock()
	f.c.st.closes.Inc()
	f.c.st.closeLat.Observe(f.c.clk.Since(start))
	return err
}

// readTrace is the trace identity of one traced ReadAt; the zero value (an
// untraced read) turns every helper below into a no-op.
type readTrace struct {
	id    uint64 // TraceID, and SpanID of the read.app root
	start time.Time
}

// beginRead mints the identity of one traced read from the commit-ID sequence
// (globally unique — the client-name hash occupies the high bits).
func (c *Client) beginRead() readTrace {
	return readTrace{id: c.commitSeq.Add(1), start: c.clk.Now()}
}

// endRead records the read.app root span.
func (c *Client) endRead(rt *readTrace) {
	c.tracer.RecordSpan(obs.Span{
		Track: c.trackApp, Name: obs.SpanAppRead,
		TraceID: rt.id, SpanID: rt.id, Start: rt.start, End: c.clk.Now(),
	})
}

// readLegStart samples the start of one leg of a traced read.
func (c *Client) readLegStart(rt *readTrace) time.Time {
	if rt.id == 0 {
		return time.Time{}
	}
	return c.clk.Now()
}

// readLeg records one leg of a traced read as a child of its read.app span.
func (c *Client) readLeg(rt *readTrace, name string, start time.Time) {
	if rt.id == 0 {
		return
	}
	c.tracer.RecordSpan(obs.Span{
		Track: c.trackApp, Name: name,
		TraceID: rt.id, SpanID: obs.NewSpanID(rt.id, name), Parent: rt.id,
		Start: start, End: c.clk.Now(),
	})
}
