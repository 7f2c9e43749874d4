// Package client implements the Redbud client file system. It speaks the
// metadata protocol to the MDS over RPC, reads and writes file data directly
// on the shared (simulated) disk array, and implements both update modes the
// paper compares:
//
//   - SyncCommit (original Redbud): the application thread writes the data,
//     spins until it is durable, then sends the commit RPC and waits — the
//     ordered write sits on the critical path (§III-A).
//   - DelayedCommit: the data write is issued, a commit task is enqueued
//     (deduplicated per file), and the call returns. Background commit
//     daemons — an adaptive pool sized ThreadNums = ρ·QueueLen — check out
//     files whose data writes completed, pack several commits into one
//     compound RPC, and send them (§III, §IV).
//
// Space delegation (double-space-pool) and the adaptive compound-degree
// controller come from internal/core.
package client

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"redbud/internal/alloc"
	"redbud/internal/clock"
	"redbud/internal/core"
	"redbud/internal/fsapi"
	"redbud/internal/meta"
	"redbud/internal/obs"
	"redbud/internal/proto"
	"redbud/internal/rpc"
	"redbud/internal/stats"
	"redbud/internal/wire"
)

// Mode selects the update protocol.
type Mode int

// Update modes.
const (
	SyncCommit Mode = iota
	DelayedCommit
)

func (m Mode) String() string {
	if m == SyncCommit {
		return "sync"
	}
	return "delayed"
}

// PageSize is the client page-cache granularity, matching the paper's
// "typical 4KB page size data".
const PageSize = 4096

// The paper's commit-path constants (§IV-B, §V).
const (
	// maxCommitThreads is ThreadNumsMax.
	maxCommitThreads = 9
	// queueLenMax sets the pool formula's ρ = maxCommitThreads/queueLenMax.
	// 45 reproduces the paper's observed range: ~20-50 queued commits keep
	// 2-5 threads alive, and floods pin the pool at maxCommitThreads.
	queueLenMax = 45
	// maxCompoundDegree bounds the adaptive compound degree.
	maxCompoundDegree = 6
)

// BlockDevice is the client's view of one member of the shared disk array:
// the direct data path the paper routes over fiber channel. Implemented by
// *blockdev.Device in-process and by san.RemoteDevice over the network.
type BlockDevice interface {
	// WriteAsync is writepage: it submits the write, and done receives the
	// result once the data is durable — like a bio's completion callback, on
	// the device's goroutine or, for a write refused outright, on the
	// caller's. The device owns p from the call on.
	WriteAsync(off int64, p []byte, done func(error))
	// Read blocks until n bytes at off have been read.
	Read(off, n int64) ([]byte, error)
}

// Config assembles a client.
type Config struct {
	// Name identifies the client to the MDS (delegation owner, GC).
	Name string
	// MDS is the connected metadata RPC client. The file-system client
	// owns it and closes it on Close.
	MDS *rpc.Client
	// Redial, if set, establishes a replacement connection to one MDS
	// shard (0 for the unsharded topology) after the current one dies; it
	// makes the client survive connection loss and MDS restarts.
	Redial func(shard int) (*rpc.Client, error)
	// Shards supplies one connected RPC client per MDS shard (index =
	// shard number) of a sharded namespace; when set it replaces MDS. The
	// client routes every inode by meta.ShardOf and verifies each server's
	// hello-advertised shard coordinates against this topology.
	Shards []*rpc.Client
	// Retry governs RPC timeouts and idempotent-retry backoff.
	Retry RetryPolicy
	// Devices maps device IDs to the shared disk array members.
	Devices map[uint32]BlockDevice
	Clock   clock.Clock
	Mode    Mode

	// PoolInterval is the pool resize period.
	PoolInterval time.Duration

	// CompoundDegree pins the compound degree; 0 selects adaptive (up to
	// maxCompoundDegree).
	CompoundDegree int
	// NetCongestion feeds the adaptive controller (optional).
	NetCongestion func() time.Duration

	// DelegationChunk enables space delegation with this chunk size
	// (paper: 16 MiB); 0 disables it.
	DelegationChunk int64

	// Ablation knobs.

	// FixedCommitThreads pins the commit pool size (vs the adaptive
	// ThreadNums = ρ·QueueLen formula); 0 selects adaptive.
	FixedCommitThreads int
	// CommitEvenIfClean sends a commit RPC for every dequeued entry even
	// when the file has nothing new — approximating a commit queue
	// without per-file deduplication.
	CommitEvenIfClean bool

	// Tracer, if non-nil, records commit-lifecycle spans (commit.queue,
	// commit.datawait, commit.rpc on track "<Name>/commit"; write.app on
	// track "<Name>/app") and cross-shard namespace saga spans (ns.create /
	// ns.remove / ns.rename with per-phase children on track "<Name>/ns").
	// The client also attaches a trace context to commit and saga-leg
	// requests, linking the server-side spans under the client span
	// that issued them — a cross-shard rename renders as one stitched tree.
	Tracer *obs.Tracer
}

// Client implements fsapi.FileSystem.
var _ fsapi.FileSystem = (*Client)(nil)

// Client is a mounted Redbud client.
type Client struct {
	cfg  Config
	clk  clock.Clock
	devs map[uint32]BlockDevice

	// links holds one connection per MDS shard (a single element for the
	// unsharded topology). Slice immutable after New; each link carries its
	// own reconnect bookkeeping.
	links []*mdsLink

	rngMu sync.Mutex
	rng   *rand.Rand // backoff jitter; guarded by rngMu

	commitSeq atomic.Uint64 // CommitID generator

	queue    *core.Queue[meta.FileID]
	pool     *core.Pool
	compound *core.Compound

	mu    sync.Mutex
	files map[meta.FileID]*fileState
	// dcache maps canonical paths to directories (a hint, validated lazily)
	// and to the regular files this client holds a delegation on; see
	// namecache.go, which also says what else mu guards.
	dcache map[string]dentry
	closed bool
	delegs atomic.Int64 // file delegations held (gauge)

	// Write-behind stage (writeback.go): the dirty window (wbBytes guarded by
	// wbMu, a leaf lock), the live write-back routines, and how many of them
	// have taken their file's list and not yet issued its device writes.
	wbMu       sync.Mutex
	wbCond     *sync.Cond
	wbBytes    int64
	flushers   sync.WaitGroup
	wbInflight atomic.Int64

	st clientStats

	tracer      *obs.Tracer
	trackApp    string // span track for application threads, "<Name>/app"
	trackCommit string // span track for commit daemons, "<Name>/commit"
	trackNS     string // span track for namespace sagas, "<Name>/ns"

	// commitLat is the client-observed commit latency (enqueue/build →
	// reply), always collected for redbud-top and the obs bench.
	commitLat *stats.Histogram
}

type clientStats struct {
	creates, opens, removes stats.Counter
	openHits, openMisses    stats.Counter // attrOf: served from a delegation / asked the MDS
	writes, reads, closes   stats.Counter
	fsyncs                  stats.Counter
	bytesWritten, bytesRead stats.Counter
	commitsSent             stats.Counter // CommitReq sub-ops sent
	commitRPCs              stats.Counter // network frames carrying commits
	retries                 stats.Counter // idempotent RPC retry attempts
	writeBackStalls         stats.Counter // writers blocked on the dirty window
	writeLat, closeLat      stats.DurationSum
	opLat                   stats.DurationSum
}

// Stats is a snapshot of client counters.
type Stats struct {
	Creates, Opens, Removes   int64
	Writes, Reads, Closes     int64
	Fsyncs                    int64
	BytesWritten, BytesRead   int64
	CommitsSent, CommitRPCs   int64
	RPCs                      int64
	QueueEnqueued, QueueDedup int64
	LocalAllocs, Delegations  int64
	WastedDelegationBytes     int64
	MeanWriteLatency          time.Duration
	MeanCloseLatency          time.Duration
	MeanOpLatency             time.Duration
	CommitThreads             int
}

// New mounts a client. The MDS connection(s) must be established.
func New(cfg Config) *Client {
	conns := cfg.Shards
	if len(conns) == 0 {
		if cfg.MDS == nil {
			panic("client: nil MDS connection")
		}
		conns = []*rpc.Client{cfg.MDS}
	}
	for i, mc := range conns {
		if mc == nil {
			panic(fmt.Sprintf("client: nil connection for shard %d", i))
		}
	}
	if len(cfg.Devices) == 0 {
		panic("client: no data devices")
	}
	if cfg.Clock == nil {
		cfg.Clock = clock.Real(1)
	}
	if cfg.PoolInterval <= 0 {
		cfg.PoolInterval = 5 * time.Millisecond
	}

	c := &Client{
		cfg:         cfg,
		clk:         cfg.Clock,
		devs:        cfg.Devices,
		files:       make(map[meta.FileID]*fileState),
		dcache:      make(map[string]dentry),
		tracer:      cfg.Tracer,
		trackApp:    cfg.Name + "/app",
		trackCommit: cfg.Name + "/commit",
		trackNS:     cfg.Name + "/ns",
		commitLat:   stats.NewLatencyHistogram(),
	}
	c.wbCond = sync.NewCond(&c.wbMu)
	for i, mc := range conns {
		if d := cfg.Retry.CallTimeout; d > 0 {
			mc.SetCallTimeout(d)
		}
		l := &mdsLink{shard: i, mds: mc}
		if cfg.DelegationChunk > 0 {
			l.space.Store(c.newSpacePool(l))
		}
		c.links = append(c.links, l)
	}
	c.commitSeq.Store(commitIDBase(cfg.Name))
	seed := cfg.Retry.Seed
	if seed == 0 {
		seed = retrySeed(cfg.Name)
	}
	c.rng = rand.New(rand.NewSource(seed))
	c.compound = core.NewCompound(core.CompoundConfig{
		Fixed:         cfg.CompoundDegree,
		Max:           maxCompoundDegree,
		NetCongestion: cfg.NetCongestion,
		ServerLoad:    c.serverLoad,
	})
	// Learn each shard's incarnation up front, so a later reconnect can tell
	// a restart from a mere connection blip, and check its shard map. Best
	// effort: a hello that fails leaves the link without delegations until
	// the next reconnect says hello again.
	for _, l := range c.links {
		c.hello(l, l.mds)
	}
	if cfg.Mode == DelayedCommit {
		c.queue = core.NewQueue[meta.FileID]()
		c.pool = core.NewPool(core.PoolConfig{
			Max:         maxCommitThreads,
			QueueLenMax: queueLenMax,
			QueueLen:    c.queue.Len,
			Worker:      c.commitDaemon,
			Interval:    cfg.PoolInterval,
			Fixed:       cfg.FixedCommitThreads,
			Clock:       cfg.Clock,
		})
		c.pool.Start()
	}
	return c
}

// delegate is the refill function of link l's SpacePool: it asks l's shard
// for a chunk of its own allocation groups. Not retried: a duplicate grant
// whose first reply was lost would leak a span on the server.
func (c *Client) delegate(l *mdsLink, size int64) (alloc.Span, error) {
	mds, _ := l.conn()
	var sp proto.SpanMsg
	if err := mds.Call(proto.OpDelegate, &proto.DelegateReq{Owner: c.cfg.Name, Size: size}, &sp); err != nil {
		return alloc.Span{}, err
	}
	return alloc.Span{Dev: int(sp.Dev), Off: sp.Off, Len: sp.Len}, nil
}

// dev resolves a device ID.
func (c *Client) dev(id uint32) (BlockDevice, error) {
	d := c.devs[id]
	if d == nil {
		return nil, fmt.Errorf("client: unknown device %d", id)
	}
	return d, nil
}

// ---------------------------------------------------------------------------
// Namespace operations

// Create makes a new regular file and opens it.
func (c *Client) Create(path string) (fsapi.File, error) {
	start := c.clk.Now()
	defer func() { c.st.opLat.Observe(c.clk.Since(start)) }()
	var fs *fileState
	err := c.withParent(path, func(dir dentry, parts []string) error {
		resp, err := c.createEntry(dir.id, parts[len(parts)-1], meta.TypeFile)
		if err != nil {
			return err
		}
		c.mu.Lock()
		fs = c.fileStateLocked(resp.ID, 0)
		fs.refs++
		if resp.Granted {
			// Created and delegated in one reply: every re-open is local
			// from here on. (A cross-shard create is never granted.)
			c.holdLocked(fs, c.child(dir, resp.ID), parts, resp.MTime)
		}
		c.mu.Unlock()
		return nil
	})
	if err != nil {
		return nil, err
	}
	c.st.creates.Inc()
	return &File{c: c, fs: fs}, nil
}

// Open opens an existing regular file. While this client holds the file's
// delegation it costs no RPC.
func (c *Client) Open(path string) (fsapi.File, error) {
	start := c.clk.Now()
	defer func() { c.st.opLat.Observe(c.clk.Since(start)) }()
	attr, how, err := c.attrOf(path, start)
	if c.tracer.Enabled() {
		c.tracer.Record(c.trackApp, openSpanNames[how], 0, start, c.clk.Now())
	}
	if err != nil {
		return nil, err
	}
	if attr.Type == meta.TypeDir {
		return nil, fmt.Errorf("%w: %s", fsapi.ErrIsDir, path)
	}
	c.st.opens.Inc()
	c.mu.Lock()
	fs := c.fileStateLocked(attr.ID, attr.Size)
	fs.refs++
	c.mu.Unlock()
	return &File{c: c, fs: fs}, nil
}

// fileStateLocked finds or creates the shared per-file state. Caller holds
// c.mu; fs.size is guarded by fs.mu (reestablish shrinks it concurrently),
// and c.mu → fs.mu is the nesting order used throughout.
func (c *Client) fileStateLocked(id meta.FileID, size int64) *fileState {
	fs := c.files[id]
	if fs == nil {
		fs = newFileState(id, size)
		c.files[id] = fs
		return fs
	}
	fs.mu.Lock()
	if size > fs.size {
		fs.size = size
	}
	// size comes from a committed attr (Create/Open), so it also raises the
	// committed watermark: a re-opened handle must be able to probe for the
	// layout backing the growth it just saw.
	if size > fs.committedSize {
		fs.committedSize = size
	}
	fs.mu.Unlock()
	return fs
}

// createEntry makes a new namespace entry, routing by the placement hash:
// when the new inode homes on the parent's own shard it is a classic
// one-shard create; otherwise the two-phase cross-shard protocol runs.
func (c *Client) createEntry(dir meta.FileID, leaf string, typ meta.FileType) (proto.AttrResp, error) {
	target := meta.PlaceShard(dir, leaf, len(c.links))
	if target == c.shardOf(dir) {
		// Not retried: a duplicate create whose first reply was lost would
		// fail with ErrExists against the first execution's entry.
		req := proto.CreateReq{Parent: dir, Name: leaf, Type: typ}
		var resp proto.AttrResp
		err := c.attrCall(c.links[target], proto.OpCreate, &req, &req.Deleg, &resp, false)
		return resp, err
	}
	return c.createCrossShard(dir, leaf, typ, target)
}

// Mkdir creates a directory.
func (c *Client) Mkdir(path string) error {
	return c.withParent(path, func(dir dentry, parts []string) error {
		resp, err := c.createEntry(dir.id, parts[len(parts)-1], meta.TypeDir)
		if err != nil {
			return err
		}
		c.mu.Lock()
		c.dcache[canonPath(parts)] = c.child(dir, resp.ID)
		c.mu.Unlock()
		return nil
	})
}

// Remove unlinks a file or empty directory.
func (c *Client) Remove(path string) error {
	// The inode first (from the delegation, or a lookup): any pending
	// delayed commit must land before the extents are freed server-side, and
	// the local state must be forgotten so later drains don't commit against
	// a deleted inode.
	attr, _, err := c.attrOf(path, c.clk.Now())
	if err != nil {
		return err
	}
	id := attr.ID
	c.mu.Lock()
	fs := c.files[id]
	c.mu.Unlock()
	if fs != nil {
		if err := c.commitFile(fs); err != nil {
			return err
		}
		// Given up before the request leaves: if the reply is lost the MDS
		// may have removed the file all the same, and a delegation still
		// trusted would go on opening it from memory. Should the remove be
		// refused instead, the next open asks and is granted again.
		c.dropDeleg(fs)
	}
	err = c.withParent(path, func(dir dentry, parts []string) error {
		leaf := parts[len(parts)-1]
		if c.shardOf(id) != c.shardOf(dir.id) {
			// The dirent and the inode live on different shards: run the
			// two-phase remove (prepare on home, unlink on parent, commit on
			// home).
			return c.removeCrossShard(dir.id, leaf, id)
		}
		l := c.shardFor(dir.id)
		mds, _ := l.conn()
		return mds.Call(proto.OpRemove, &proto.RemoveReq{Parent: dir.id, Name: leaf, Deleg: c.delegCtx(l)}, nil)
	})
	if err != nil {
		return err
	}
	c.st.removes.Inc()
	c.mu.Lock()
	if fs != nil {
		delete(c.files, id)
	}
	delete(c.dcache, canonPath(fsapi.SplitPath(path))) // a directory's entry
	c.mu.Unlock()
	return nil
}

// Rename moves a file or directory. Any pending delayed commit of the moved
// file rides along untouched — commits address inodes, not names.
func (c *Client) Rename(oldPath, newPath string) error {
	// Path-keyed cache entries under the old name (and, for directories, the
	// whole subtree) go stale: drop the dentry cache wholesale, and with it
	// the names the delegations are cached under — renames are rare, lookups
	// are cheap. Before the request leaves, because a rename whose reply is
	// lost may have happened all the same; and again when it is over, for
	// what other threads cached meanwhile.
	c.flushNames()
	defer c.flushNames()
	return c.withParent(oldPath, func(src dentry, sp []string) error {
		return c.withParent(newPath, func(dst dentry, dp []string) error {
			srcLeaf, dstLeaf := sp[len(sp)-1], dp[len(dp)-1]
			if c.shardOf(src.id) != c.shardOf(dst.id) {
				// The two dirent tables live on different shards: two-phase
				// rename.
				return c.renameCrossShard(src.id, srcLeaf, dst.id, dstLeaf)
			}
			l := c.shardFor(src.id)
			req := proto.RenameReq{SrcParent: src.id, SrcName: srcLeaf, DstParent: dst.id, DstName: dstLeaf, Deleg: c.delegCtx(l)}
			mds, _ := l.conn()
			return mds.Call(proto.OpRename, &req, nil)
		})
	})
}

// Stat describes a path. Like Open it costs no RPC for a file this client
// holds the delegation on.
func (c *Client) Stat(path string) (fsapi.Info, error) {
	// Attributes come from the inode's home shard — the parent shard's
	// remote-edge record knows only name and type.
	attr, _, err := c.attrOf(path, c.clk.Now())
	if err != nil {
		return fsapi.Info{}, err
	}
	info := fsapi.Info{Name: lastPart(path), Size: attr.Size, Dir: attr.Type == meta.TypeDir, MTime: attr.MTime}
	// Local uncommitted writes make the file larger than the MDS knows.
	c.mu.Lock()
	if fs := c.files[attr.ID]; fs != nil {
		fs.mu.Lock()
		if fs.size > info.Size {
			info.Size = fs.size
		}
		fs.mu.Unlock()
	}
	c.mu.Unlock()
	return info, nil
}

func lastPart(path string) string {
	parts := fsapi.SplitPath(path)
	if len(parts) == 0 {
		return "/"
	}
	return parts[len(parts)-1]
}

// ReadDir lists a directory.
func (c *Client) ReadDir(path string) ([]fsapi.Info, error) {
	var resp proto.ReadDirResp
	for {
		// A cached directory costs nothing to resolve; anything else is
		// looked up (the root is its own id).
		c.mu.Lock()
		de, cached := c.dcache[path]
		c.mu.Unlock()
		if cached = cached && !de.file; !cached {
			a, _, err := c.attrOf(path, c.clk.Now())
			if err != nil {
				return nil, err
			}
			de.id = a.ID
		}
		err := c.callIdem(c.shardFor(de.id), proto.OpReadDir, &proto.ReadDirReq{ID: de.id}, &resp)
		if err == nil {
			break
		}
		if !cached || !errors.Is(err, fsapi.ErrNotExist) {
			return nil, err
		}
		// The cached directory is gone; ask for the name again.
		c.mu.Lock()
		delete(c.dcache, path)
		c.mu.Unlock()
	}
	out := make([]fsapi.Info, 0, len(resp.Entries))
	for _, e := range resp.Entries {
		// Remote-homed children list with Size 0 (the parent shard does not
		// track sizes); Stat the path for the authoritative size.
		out = append(out, fsapi.Info{Name: e.Name, Dir: e.Type == meta.TypeDir, Size: e.Size})
	}
	return out, nil
}

// ---------------------------------------------------------------------------
// Commit machinery

// enqueueCommit registers a file for background commit (delayed mode) or
// commits it synchronously (sync mode).
func (c *Client) enqueueCommit(fs *fileState) error {
	if c.cfg.Mode == DelayedCommit {
		if c.tracer.Enabled() {
			// Stamp the queue-entry time once per queue residency; the
			// commit daemon that builds the request records it as the
			// commit.queue span.
			now := c.clk.Now()
			fs.mu.Lock()
			if fs.enqAt.IsZero() {
				fs.enqAt = now
			}
			fs.mu.Unlock()
		}
		c.queue.Enqueue(fs.id)
		return nil
	}
	return c.commitFile(fs)
}

// commitDaemon is one commit thread: it checks out batches of files whose
// local writes completed and sends their metadata in one compound RPC.
func (c *Client) commitDaemon(stop <-chan struct{}) {
	for {
		c.compound.Tick()
		degree := c.compound.Degree()
		batch := c.queue.Dequeue(degree, stop)
		if batch == nil {
			return
		}
		c.commitBatch(batch)
	}
}

// commitBatch waits for the files' data writes, then sends one compound RPC
// per shard carrying every non-empty commit. Commits route to the inode's
// home shard, so a batch spanning shards splits into one frame each — files
// of one shard still share their frame.
func (c *Client) commitBatch(ids []meta.FileID) {
	var built []builtCommit
	for _, id := range ids {
		c.mu.Lock()
		fs := c.files[id]
		c.mu.Unlock()
		if fs == nil {
			continue
		}
		if bc, ok, _ := c.buildCommit(fs, false); ok { // never lost: a daemon does not wait
			built = append(built, bc)
		}
	}
	if len(c.links) > 1 {
		byShard := make(map[int][]builtCommit)
		for _, bc := range built {
			s := c.shardOf(bc.fs.id)
			byShard[s] = append(byShard[s], bc)
		}
		for _, group := range byShard {
			c.sendCommitGroup(group)
		}
		return
	}
	c.sendCommitGroup(built)
}

// sendCommitGroup ships one group of commits — all homed on the same shard —
// as a single RPC or compound frame. A commit built in an MDS session that
// has been re-established since never leaves (builtCommit.stale).
func (c *Client) sendCommitGroup(built []builtCommit) {
	live := built[:0]
	for _, bc := range built {
		if bc.stale() {
			c.finishCommit(bc.fs, bc.req, errSessionLost)
			continue
		}
		live = append(live, bc)
	}
	built = live
	if len(built) == 0 {
		return
	}
	if len(built) == 1 {
		bc := built[0]
		c.st.commitRPCs.Inc()
		c.st.commitsSent.Inc()
		var resp proto.CommitResp
		start := c.clk.Now()
		err := c.sendCommit(bc, &resp)
		c.observeCommitRPC(start, bc.req.CommitID)
		c.finishCommit(bc.fs, bc.req, err)
		return
	}
	ops := make([]rpc.SubOp, 0, len(built))
	for _, bc := range built {
		ops = append(ops, rpc.SubOp{Op: proto.OpCommit, Body: wire.Encode(bc.req)})
	}
	c.st.commitRPCs.Inc()
	start := c.clk.Now()
	results, err := c.sendCompound(built, ops)
	for i, bc := range built {
		c.st.commitsSent.Inc()
		c.observeCommitRPC(start, bc.req.CommitID)
		e := err
		if e == nil && results[i].Err != nil {
			e = results[i].Err
		}
		c.finishCommit(bc.fs, bc.req, e)
	}
}

// observeCommitRPC folds one commit's RPC round-trip into the latency
// histogram and, when tracing, records its commit.rpc span. Commits sharing
// a compound frame share the interval — each rode the same wire round trip.
func (c *Client) observeCommitRPC(start time.Time, commitID uint64) {
	end := c.clk.Now()
	c.commitLat.ObserveDuration(end.Sub(start))
	if c.tracer.Enabled() {
		c.tracer.RecordSpan(obs.Span{
			Track: c.trackCommit, Name: obs.SpanCommitRPC, CommitID: commitID,
			TraceID: commitID, SpanID: obs.NewSpanID(commitID, obs.SpanCommitRPC),
			Start: start, End: end,
		})
	}
}

// builtCommit is a commit request with the file and the MDS session it was
// built from. The extents it names are only good in that session: a recovered
// MDS reclaimed them, and may since have delegated the same space again — to
// this very client, whose fresh pool carves it for another write — so a
// request that outlived its session must never be (re)sent.
type builtCommit struct {
	fs      *fileState
	req     *proto.CommitReq
	session uint64
}

// stale reports whether the file's session was re-established since the
// commit was built.
func (bc builtCommit) stale() bool {
	bc.fs.mu.Lock()
	defer bc.fs.mu.Unlock()
	return bc.fs.session != bc.session
}

// buildCommit waits for the file's data — write-behind flush and device
// writes — to be durable (the ordered-write rule) and snapshots the file's
// uncommitted metadata. ok is false when there is nothing to commit. A file
// has one commit in flight at a time, from this snapshot to finishCommit.
// With wait, buildCommit waits that commit out and snapshots what it left
// dirty; if the MDS session was re-established meanwhile, what the caller
// wanted committed went with it, and err is errSessionLost — what a commit
// of the caller's own, built beside the one in flight, would have met. A
// commit daemon passes !wait and leaves the file to the commit in flight,
// which re-enqueues it if it is still dirty: a daemon waiting there could
// hold one file of another daemon's batch while that daemon holds one of its
// own.
func (c *Client) buildCommit(fs *fileState, wait bool) (bc builtCommit, ok bool, err error) {
	traced := c.tracer.Enabled()
	var waitStart time.Time
	if traced {
		waitStart = c.clk.Now()
	}
	fs.mu.Lock()
	fs.waitWritesLocked()
	for fs.committing {
		if !wait {
			fs.recommit = true
			fs.mu.Unlock()
			return builtCommit{}, false, nil
		}
		session := fs.session
		for fs.committing {
			fs.cond.Wait()
		}
		if fs.session != session {
			fs.mu.Unlock()
			return builtCommit{}, false, errSessionLost
		}
		fs.waitWritesLocked()
	}
	enqAt := fs.enqAt
	fs.enqAt = time.Time{}
	if fs.writeErr != nil || (!fs.dirtyMeta && !c.cfg.CommitEvenIfClean) {
		fs.mu.Unlock()
		return builtCommit{}, false, nil
	}
	fs.committing = true
	session := fs.session
	var exts []meta.Extent
	for _, e := range fs.extents {
		if e.State == meta.StateUncommitted {
			exts = append(exts, e)
		}
	}
	req := &proto.CommitReq{
		Owner: c.cfg.Name, File: fs.id, Size: fs.size, MTime: fs.mtime,
		// A fresh CommitID per built request: retransmissions of this exact
		// request dedupe at the MDS, while a rebuilt (different) commit for
		// the same file is a new operation.
		CommitID: c.commitSeq.Add(1),
		Extents:  exts,
	}
	fs.mu.Unlock()
	if traced {
		// The commit's trace reuses the CommitID (globally unique — the name
		// hash occupies the high bits) as its TraceID, and the commit.rpc
		// span as the parent the server links under.
		req.Trace = proto.TraceCtx{TraceID: req.CommitID, SpanID: obs.NewSpanID(req.CommitID, obs.SpanCommitRPC)}
		if !enqAt.IsZero() {
			c.tracer.RecordSpan(obs.Span{
				Track: c.trackCommit, Name: obs.SpanCommitQueue, CommitID: req.CommitID,
				TraceID: req.CommitID, SpanID: obs.NewSpanID(req.CommitID, obs.SpanCommitQueue),
				Start: enqAt, End: waitStart,
			})
		}
		c.tracer.RecordSpan(obs.Span{
			Track: c.trackCommit, Name: obs.SpanCommitDataWait, CommitID: req.CommitID,
			TraceID: req.CommitID, SpanID: obs.NewSpanID(req.CommitID, obs.SpanCommitDataWait),
			Start: waitStart, End: c.clk.Now(),
		})
	}
	return builtCommit{fs: fs, req: req, session: session}, true, nil
}

// extentKey identifies one extent of a file: the committed-extent match in
// finishCommit needs the device and file offset too, because volume offsets
// alone are not unique across the array.
type extentKey struct {
	fileOff, volOff int64
	dev             uint32
}

// finishCommit marks the committed extents, ends the file's commit in flight
// and wakes fsync waiters. A "not found" rejection means the file was removed
// (possibly by another client) while the commit was in flight; there is
// nothing left to order, so the state is dropped rather than treated as a
// failure. Nor does a commit that outlived its MDS session poison the file:
// re-establishment has rolled the file back to what the recovered MDS knows,
// and a caller waiting for this very commit (Sync) gets the error from
// commitFile. A file a commit daemon left to this commit goes back on the
// queue if it is still dirty.
func (c *Client) finishCommit(fs *fileState, req *proto.CommitReq, err error) {
	if err != nil {
		// The MDS may or may not have applied it: what the delegation says
		// about the file's attributes is no longer certain. The next open
		// asks, and is granted again if nothing else happened.
		c.dropDeleg(fs)
	}
	fs.mu.Lock()
	if errors.Is(err, fsapi.ErrNotExist) {
		fs.dirtyMeta = false
	} else if errors.Is(err, errSessionLost) {
		// Nothing of this request exists any more, on either side.
	} else if err != nil {
		fs.commitErr = err
	} else {
		// Match acked extents by full identity, not VolOff alone: volume
		// offsets repeat across devices (every device starts its AGs at the
		// same bases), so a VolOff-only match can mark an extent written
		// concurrently with this RPC as committed even though it was never
		// sent — the MDS then never learns about it and cross-client reads
		// see a hole.
		committed := make(map[extentKey]bool, len(req.Extents))
		for _, e := range req.Extents {
			committed[extentKey{e.FileOff, e.VolOff, e.Dev}] = true
		}
		stillDirty := false
		for i := range fs.extents {
			e := &fs.extents[i]
			if committed[extentKey{e.FileOff, e.VolOff, e.Dev}] {
				e.State = meta.StateCommitted
			} else if e.State == meta.StateUncommitted {
				stillDirty = true
			}
		}
		fs.committedSize = req.Size
		if req.MTime.After(fs.attrMTime) {
			fs.attrMTime = req.MTime // as the MDS applies it
		}
		// Bytes written behind since the request was built have no extents
		// yet; they are dirty all the same, or the next buildCommit would
		// find nothing to do and they would never be committed.
		fs.dirtyMeta = stillDirty || fs.flushing
	}
	again := fs.recommit && fs.dirtyMeta
	fs.committing, fs.recommit = false, false
	fs.commitGen++
	fs.cond.Broadcast()
	fs.mu.Unlock()
	if again {
		_ = c.enqueueCommit(fs) // only commit daemons set recommit: delayed mode, which cannot fail here
	}
}

// commitFile synchronously commits one file (sync mode, fsync, unmount),
// after the commit of it already in flight, if any.
func (c *Client) commitFile(fs *fileState) error {
	bc, ok, err := c.buildCommit(fs, true)
	if err != nil {
		return err
	}
	if !ok {
		fs.mu.Lock()
		err := fs.writeErr
		fs.mu.Unlock()
		return err
	}
	c.st.commitRPCs.Inc()
	c.st.commitsSent.Inc()
	var resp proto.CommitResp
	start := c.clk.Now()
	err = c.sendCommit(bc, &resp)
	c.observeCommitRPC(start, bc.req.CommitID)
	c.finishCommit(fs, bc.req, err)
	if errors.Is(err, fsapi.ErrNotExist) {
		return nil // file removed while the commit was in flight
	}
	return err
}

// ---------------------------------------------------------------------------
// Lifecycle

// Close unmounts: flushes all dirty files, drains the commit machinery, and
// returns delegations.
func (c *Client) Close() error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return fsapi.ErrClosed
	}
	c.closed = true
	c.dropShardDelegsLocked(-1, false)
	files := make([]*fileState, 0, len(c.files))
	for _, fs := range c.files {
		files = append(files, fs)
	}
	c.mu.Unlock()

	firstErr := c.drainFiles(files)
	c.flushers.Wait()
	if c.pool != nil {
		c.queue.Close()
		c.pool.Stop()
	}
	for _, l := range c.links {
		mds, _ := l.conn()
		if pool := l.space.Load(); pool != nil {
			// Every chunk goes back to the shard that granted it.
			for _, sp := range pool.Close() {
				msg := proto.SpanMsg{Dev: uint32(sp.Dev), Off: sp.Off, Len: sp.Len}
				if err := mds.Call(proto.OpDelegReturn, &proto.DelegReturnReq{Owner: c.cfg.Name, Span: msg}, nil); err != nil && firstErr == nil {
					firstErr = err
				}
			}
		}
		mds.Close()
	}
	return firstErr
}

// Crash abandons the client without committing or returning anything —
// the client-failure scenario for orphan-GC tests. Write-behind data is
// dropped with the rest; the write-back routines are gone when it returns.
func (c *Client) Crash() {
	c.mu.Lock()
	c.closed = true
	c.dropShardDelegsLocked(-1, false)
	c.mu.Unlock()
	// Killed, not just closed: a call in flight must die with its
	// connection instead of redialling and landing after the crash.
	for _, l := range c.links {
		l.kill(fsapi.ErrClosed)
	}
	// Before the pool: a commit daemon may be waiting for a flush, and the
	// flush for a layout-get that only the closed connection ends.
	c.dropAllDeferred()
	c.flushers.Wait()
	if c.pool != nil {
		c.queue.Close()
		c.pool.Stop()
	}
}

// Drain blocks until the commit queue is empty and all dirty files are
// committed; the harness uses it to close a measurement window without
// tearing the client down. Commits are issued with the same parallelism the
// background pool would use.
func (c *Client) Drain() error {
	c.mu.Lock()
	files := make([]*fileState, 0, len(c.files))
	for _, fs := range c.files {
		files = append(files, fs)
	}
	c.mu.Unlock()

	return c.drainFiles(files)
}

// drainFiles commits the given files with bounded parallelism.
func (c *Client) drainFiles(files []*fileState) error {
	sem := make(chan struct{}, maxCommitThreads)
	errc := make(chan error, len(files))
	for _, fs := range files {
		sem <- struct{}{}
		go func() {
			defer func() { <-sem }()
			errc <- c.commitFile(fs)
		}()
	}
	var firstErr error
	for range files {
		if err := <-errc; err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

// QueueLen exposes the commit queue length (Figure 6 sampling).
func (c *Client) QueueLen() int {
	if c.queue == nil {
		return 0
	}
	return c.queue.Len()
}

// CommitThreads exposes the live commit-thread count (Figure 6 sampling).
func (c *Client) CommitThreads() int {
	if c.pool == nil {
		return 0
	}
	return c.pool.Size()
}

// CompoundDegree exposes the current compound degree.
func (c *Client) CompoundDegree() int { return c.compound.Degree() }

// Stats snapshots the client counters.
func (c *Client) Stats() Stats {
	s := Stats{
		Creates:          c.st.creates.Load(),
		Opens:            c.st.opens.Load(),
		Removes:          c.st.removes.Load(),
		Writes:           c.st.writes.Load(),
		Reads:            c.st.reads.Load(),
		Closes:           c.st.closes.Load(),
		Fsyncs:           c.st.fsyncs.Load(),
		BytesWritten:     c.st.bytesWritten.Load(),
		BytesRead:        c.st.bytesRead.Load(),
		CommitsSent:      c.st.commitsSent.Load(),
		CommitRPCs:       c.st.commitRPCs.Load(),
		RPCs:             c.rpcCalls(),
		MeanWriteLatency: c.st.writeLat.Mean(),
		MeanCloseLatency: c.st.closeLat.Mean(),
		MeanOpLatency:    c.st.opLat.Mean(),
		CommitThreads:    c.CommitThreads(),
	}
	if c.queue != nil {
		s.QueueEnqueued, s.QueueDedup = c.queue.Stats()
	}
	for _, l := range c.links {
		if pool := l.space.Load(); pool != nil {
			local, chunks, wasted := pool.Stats()
			s.LocalAllocs += local
			s.Delegations += chunks
			s.WastedDelegationBytes += wasted
		}
	}
	return s
}

// rpcCalls totals RPCs across every shard's live connection and any each
// replaced.
func (c *Client) rpcCalls() int64 {
	var total int64
	for _, l := range c.links {
		total += l.calls()
	}
	return total
}

// badFrames sums the live connections' malformed-frame counters.
func (c *Client) badFrames() int64 {
	var total int64
	for _, l := range c.links {
		mds, _ := l.conn()
		total += mds.BadFrames()
	}
	return total
}

// RegisterMetrics exposes the client counters in a metrics registry,
// labeled with the client name.
func (c *Client) RegisterMetrics(r *obs.Registry) {
	if r == nil {
		return
	}
	l := obs.Labels{"client": c.cfg.Name}
	r.CounterFunc("redbud_client_writes_total", "WriteAt calls", l, c.st.writes.Load)
	r.CounterFunc("redbud_client_reads_total", "ReadAt calls", l, c.st.reads.Load)
	r.CounterFunc("redbud_client_written_bytes_total", "bytes written by applications", l, c.st.bytesWritten.Load)
	r.CounterFunc("redbud_client_read_bytes_total", "bytes read by applications", l, c.st.bytesRead.Load)
	r.CounterFunc("redbud_client_fsyncs_total", "Sync calls", l, c.st.fsyncs.Load)
	r.CounterFunc("redbud_client_open_hits_total", "opens and stats served from a file delegation, no RPC", l, c.st.openHits.Load)
	r.CounterFunc("redbud_client_open_misses_total", "opens and stats that asked the MDS", l, c.st.openMisses.Load)
	r.GaugeFunc("redbud_client_delegations", "file delegations held", l, c.delegs.Load)
	r.CounterFunc("redbud_client_commits_sent_total", "commit requests sent (compound sub-ops counted)", l, c.st.commitsSent.Load)
	r.CounterFunc("redbud_client_commit_rpcs_total", "network frames carrying commits", l, c.st.commitRPCs.Load)
	r.CounterFunc("redbud_client_rpcs_total", "RPCs issued across all MDS connections", l, c.rpcCalls)
	r.CounterFunc("redbud_client_retries_total", "idempotent RPC retry attempts after transport faults", l, c.st.retries.Load)
	r.CounterFunc("redbud_client_bad_frames_total", "malformed response frames on the live connection", l, c.badFrames)
	r.GaugeFunc("redbud_client_writeback_bytes", "write-behind bytes acknowledged and not yet durable (at risk)", l, c.dirtyBytes)
	r.CounterFunc("redbud_client_writeback_stalls_total", "writers blocked on the write-behind dirty window", l, c.st.writeBackStalls.Load)
	r.GaugeFunc("redbud_client_writeback_inflight", "files whose write-back routine has taken its list and not yet issued its device writes", l, c.wbInflight.Load)
	r.GaugeFunc("redbud_client_commit_queue_len", "commit queue length", l,
		func() int64 { return int64(c.QueueLen()) })
	r.GaugeFunc("redbud_client_commit_threads", "live commit-daemon pool size", l,
		func() int64 { return int64(c.CommitThreads()) })
	r.GaugeFunc("redbud_client_compound_degree", "current adaptive compound degree", l,
		func() int64 { return int64(c.CompoundDegree()) })
	r.RegisterHistogram("redbud_client_commit_latency_seconds", "client-observed commit RPC latency", l, c.commitLat)
}
