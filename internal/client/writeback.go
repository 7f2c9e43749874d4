package client

import (
	"errors"
	"fmt"
	"sort"
	"time"

	"redbud/internal/core"
	"redbud/internal/fsapi"
	"redbud/internal/meta"
	"redbud/internal/obs"
	"redbud/internal/proto"
)

// The data half of the ordered-write chain: allocate → writepage. There is
// one implementation, writeOut, with two callers. SyncCommit writes, and
// delayed-commit writes whose range is already backed or that the delegation
// pool can back, call it inline from WriteAt. A delayed-commit write that
// needs space from the MDS is acknowledged first and put on its file's
// write-behind list; the file's write-back routine calls writeOut for
// everything that accumulated, so the layout-get — and the journal write
// behind it — is paid once per flush instead of once per write, off the
// application thread. DESIGN.md "The window" has the numbers behind the one
// bound.
//
// writeBackWindow bounds the bytes one client has acknowledged to applications
// under write-behind and not yet made durable; writers block above it. A
// single write larger than the window is admitted alone. It is the only bound
// on write-behind: it caps the at-risk bytes, and with them how many files can
// be behind at once.
const writeBackWindow = 4 << 20

// errSessionLost marks a layout-get that returned into a later MDS session
// than it left in: the recovered MDS reclaimed what the dead session had
// allocated, so the extents must not be used.
var errSessionLost = errors.New("client: MDS session lost during allocation")

// fileWrite is one application write on its way to the array.
type fileWrite struct {
	off  int64
	data []byte
}

func writeBytes(ws []fileWrite) int64 {
	var n int64
	for _, w := range ws {
		n += int64(len(w.data))
	}
	return n
}

// devWrite is one planned device I/O.
type devWrite struct {
	dev    uint32
	volOff int64
	data   []byte
}

// mustDeferLocked reports whether a delayed-commit write of [off, end) takes
// the write-behind path: an earlier write of the file is still behind (device
// writes keep application order), or the range needs space the delegation
// pool cannot give. Caller holds fs.mu.
func (c *Client) mustDeferLocked(fs *fileState, off, end int64) bool {
	if fs.flushing {
		return true
	}
	holes, err := c.coverLocalLocked(fs, off, end, false)
	if fs.flushing { // deferred while the pool refilled: this write goes behind it
		return true
	}
	// A failing pool is reported by the inline path, which asks it again.
	return err == nil && len(holes) > 0
}

// writeOut allocates space for ws, plans one set of device writes per
// original write and issues them, in order. behind says ws came off the
// write-behind list: its bytes are in the page cache already, charged to the
// dirty window, and private copies the devices can keep. Otherwise they are
// copied once, when allocation has succeeded, so a failed write leaves the
// file untouched, and that one copy is staged in the page cache and handed to
// the devices (neither writes into it). Called with fs.mu held; releases it
// (the layout-get and the device submits run unlocked).
func (c *Client) writeOut(fs *fileState, ws []fileWrite, behind bool) error {
	if err := c.ensureExtents(fs, ws, behind); err != nil {
		fs.mu.Unlock()
		return err
	}
	now := c.clk.Now()
	var ios []devWrite
	for _, w := range ws {
		data := w.data
		if !behind {
			data = append([]byte(nil), data...)
			fs.stageLocked(data, w.off, now)
		}
		plan, err := c.planIO(fs, data, w.off)
		if err != nil {
			fs.mu.Unlock()
			return err
		}
		ios = append(ios, plan...)
	}
	fs.pendingWrites += len(ios)
	fs.mu.Unlock()

	// writepage: submit to the storage devices; each write retires in its
	// completion callback.
	for _, dw := range ios {
		n := int64(len(dw.data))
		dev, err := c.dev(dw.dev)
		if err != nil {
			c.writeDone(fs, n, err, behind)
			continue
		}
		dev.WriteAsync(dw.volOff, dw.data, func(err error) { c.writeDone(fs, n, err, behind) })
	}
	return nil
}

// writeDone retires one device write of n bytes; behind writes give their
// bytes back to the dirty window. It runs on the device's completion
// goroutine, so nothing may hold fs.mu across a wait that is not fs.cond's.
func (c *Client) writeDone(fs *fileState, n int64, err error, behind bool) {
	fs.mu.Lock()
	fs.pendingWrites--
	if err != nil && fs.writeErr == nil {
		fs.writeErr = err
	}
	fs.dropCacheIfOversizedLocked()
	fs.cond.Broadcast()
	fs.mu.Unlock()
	if behind {
		c.releaseDirty(n)
	}
}

// coverLocalLocked backs the holes of [off, end) from the delegation pool
// and returns those it could not (all of them without a pool, or while a
// session re-establishment has the pool closed). A dry pool is not waited for
// under fs.mu — device completions retire writes under it — so the lock is
// let go for the refill and the holes are recomputed after it. keepSession
// (a write-behind batch, which belongs to the session it was taken in) ends
// with errSessionLost if the file's session moved meanwhile, before anything
// is carved into the new one. Caller holds fs.mu.
func (c *Client) coverLocalLocked(fs *fileState, off, end int64, keepSession bool) ([][2]int64, error) {
	session := fs.session
	for {
		holes := fs.gapsLocked(off, end)
		pool := c.spacePool(fs.id)
		if pool == nil || len(holes) == 0 {
			return holes, nil
		}
		remaining := holes[:0]
		var refill <-chan struct{}
		for _, h := range holes {
			sp, wait, err := pool.TryAlloc(h[1] - h[0])
			if wait != nil {
				refill = wait
				break
			}
			if err != nil {
				if errors.Is(err, core.ErrTooLarge) || errors.Is(err, core.ErrPoolClosed) {
					remaining = append(remaining, h)
					continue
				}
				return nil, err
			}
			fs.insertExtentLocked(meta.Extent{
				FileOff: h[0], Len: sp.Len, Dev: uint32(sp.Dev), VolOff: sp.Off,
				State: meta.StateUncommitted,
			})
		}
		if refill == nil {
			return remaining, nil
		}
		fs.mu.Unlock()
		pool.WaitRefill(refill)
		fs.mu.Lock()
		if keepSession && fs.session != session {
			return nil, errSessionLost
		}
	}
}

// ensureExtents covers every range of ws with extents, from the delegation
// pool where possible, otherwise with one layout-get per contiguous run of
// holes. behind: ws is already part of the file's local state, which a session
// re-establishment during the layout-get throws away — the grant is then
// dropped with it (errSessionLost). An inline write has staged nothing yet and
// simply lands in the new session. Caller holds fs.mu; a pool refill and the
// MDS path drop and reacquire it.
func (c *Client) ensureExtents(fs *fileState, ws []fileWrite, behind bool) error {
	var runs [][2]int64
	for _, w := range ws {
		holes, err := c.coverLocalLocked(fs, w.off, w.off+int64(len(w.data)), behind)
		if err != nil {
			return err
		}
		runs = append(runs, holes...)
	}
	if len(runs) == 0 {
		return nil
	}
	runs = mergeRuns(runs)
	// Large (or undelegated) ranges apply to the MDS directly.
	session := fs.session
	fs.mu.Unlock()
	// A write-behind batch is never (re)sent into a later session than it was
	// taken off the list in: its data is dropped with that session, and the
	// allocation would stay behind at the recovered MDS as an extent longer
	// than whatever this file writes there next — which a commit would then
	// name with its tail never written (TestChaosMDSRestartWriteBehind's
	// "non-durable extent", 3 runs in 1 600 once cached opens made the
	// write-back routine, not the application's next Open, the usual
	// discoverer of a restart).
	var live func() bool
	if behind {
		live = func() bool {
			fs.mu.Lock()
			defer fs.mu.Unlock()
			return fs.session == session
		}
	}
	var granted []meta.Extent
	var err error
	for _, r := range runs {
		var lay proto.LayoutResp
		// Idempotent retry is safe: re-allocating the same range returns the
		// extents the first attempt created.
		err = c.callIdemIn(c.shardFor(fs.id), proto.OpLayoutGet, &proto.LayoutGetReq{
			Owner: c.cfg.Name, File: fs.id, Off: r[0], Len: r[1] - r[0], Flags: meta.LayoutWrite,
		}, &lay, live)
		if err != nil {
			break
		}
		granted = append(granted, lay.Extents...)
	}
	fs.mu.Lock()
	if errors.Is(err, errSessionLost) || (behind && fs.session != session) {
		return errSessionLost
	}
	if err != nil {
		return err
	}
	for _, e := range granted {
		fs.insertExtentLocked(e)
	}
	for _, r := range runs {
		if rest := fs.gapsLocked(r[0], r[1]); len(rest) > 0 {
			return fmt.Errorf("client: layout for file %d leaves %d holes", fs.id, len(rest))
		}
	}
	return nil
}

// mergeRuns sorts ranges and joins those that touch or overlap.
func mergeRuns(rs [][2]int64) [][2]int64 {
	sort.Slice(rs, func(i, j int) bool { return rs[i][0] < rs[j][0] })
	out := rs[:1]
	for _, r := range rs[1:] {
		if last := &out[len(out)-1]; r[0] <= last[1] {
			last[1] = max64(last[1], r[1])
		} else {
			out = append(out, r)
		}
	}
	return out
}

// planIO maps [off, off+len(p)) onto device writes via the extent list.
// Caller holds fs.mu.
func (c *Client) planIO(fs *fileState, p []byte, off int64) ([]devWrite, error) {
	end := off + int64(len(p))
	var out []devWrite
	for _, e := range fs.extents {
		if e.End() <= off {
			continue
		}
		if e.FileOff >= end {
			break
		}
		s, t := max64(e.FileOff, off), min64(e.End(), end)
		out = append(out, devWrite{
			dev:    e.Dev,
			volOff: e.VolOff + (s - e.FileOff),
			data:   p[s-off : t-off],
		})
	}
	var covered int64
	for _, w := range out {
		covered += int64(len(w.data))
	}
	if covered != int64(len(p)) {
		return nil, fmt.Errorf("client: write plan covers %d of %d bytes", covered, len(p))
	}
	return out, nil
}

// writeBack is a file's write-back routine: started by the first deferred
// write, it flushes whatever has accumulated until the list is empty, then
// goes. One runs per file at a time (fs.flushing). Writes keep accumulating
// while a flush's layout-get is out; the next flush's one layout-get then
// covers them all.
func (c *Client) writeBack(fs *fileState) {
	defer c.flushers.Done()
	for {
		fs.mu.Lock()
		if len(fs.deferred) == 0 {
			fs.flushing = false
			fs.cond.Broadcast()
			fs.mu.Unlock()
			return
		}
		ws, since := fs.deferred, fs.deferredAt
		fs.deferred, fs.deferredAt = nil, time.Time{}
		c.wbInflight.Add(1)
		err := c.writeOut(fs, ws, true) // releases fs.mu
		c.wbInflight.Add(-1)
		if err != nil {
			c.dropBehind(fs, ws, err)
			continue
		}
		if c.tracer.Enabled() && len(ws) > 0 {
			c.tracer.Record(c.trackCommit, obs.SpanWriteBehind, 0, since, c.clk.Now())
		}
	}
}

// dropBehind gives up on a flush the MDS refused. A file that no longer
// exists and a session that died under the allocation lose the data quietly —
// as finishCommit does for a commit and reestablish for uncommitted extents.
// Any other failure (no space) poisons the file like a device error: the next
// WriteAt, Sync or Close reports it.
func (c *Client) dropBehind(fs *fileState, ws []fileWrite, err error) {
	fs.mu.Lock()
	switch {
	case errors.Is(err, errSessionLost):
	case errors.Is(err, fsapi.ErrNotExist):
		fs.dirtyMeta = false
	case fs.writeErr == nil:
		fs.writeErr = err
	}
	fs.cond.Broadcast()
	fs.mu.Unlock()
	c.releaseDirty(writeBytes(ws))
}

// admitDirty charges n write-behind bytes to the client's dirty window,
// blocking while they do not fit. An empty window admits anything, so a
// write larger than the window goes through alone.
func (c *Client) admitDirty(n int64) {
	c.wbMu.Lock()
	if c.wbBytes > 0 && c.wbBytes+n > writeBackWindow {
		c.st.writeBackStalls.Inc()
		for c.wbBytes > 0 && c.wbBytes+n > writeBackWindow {
			c.wbCond.Wait()
		}
	}
	c.wbBytes += n
	c.wbMu.Unlock()
}

// releaseDirty returns bytes to the dirty window: they are durable, or were
// dropped.
func (c *Client) releaseDirty(n int64) {
	if n == 0 {
		return
	}
	c.wbMu.Lock()
	c.wbBytes -= n
	c.wbCond.Broadcast()
	c.wbMu.Unlock()
}

// dirtyBytes is the client's at-risk data under write-behind: acknowledged,
// not yet durable.
func (c *Client) dirtyBytes() int64 {
	c.wbMu.Lock()
	defer c.wbMu.Unlock()
	return c.wbBytes
}

// dropAllDeferred empties every file's write-behind list (Crash).
func (c *Client) dropAllDeferred() {
	c.mu.Lock()
	files := c.sortedFilesLocked(-1)
	c.mu.Unlock()
	for _, fs := range files {
		fs.mu.Lock()
		n := fs.dropDeferredLocked()
		fs.mu.Unlock()
		c.releaseDirty(n)
	}
}
