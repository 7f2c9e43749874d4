package client

import (
	"errors"
	"hash/fnv"
	"math/rand"
	"time"

	"redbud/internal/alloc"
	"redbud/internal/core"
	"redbud/internal/meta"
	"redbud/internal/proto"
	"redbud/internal/rpc"
	"redbud/internal/wire"
)

// RetryPolicy configures how the client survives transport faults: lost or
// delayed RPC frames, a dying connection, and an MDS restart.
//
// Only idempotent operations are ever retried: commits (made idempotent by
// the CommitID the MDS dedupes), lookups, attribute and directory reads, and
// layout fetches (re-allocating a layout returns the extents the first
// attempt created). Namespace mutations — create, remove, rename — and
// delegation requests are never retried, because a duplicate would create,
// unlink, or leak state the first execution already handled.
type RetryPolicy struct {
	// MaxAttempts is the total number of tries per retriable RPC. Zero
	// defaults to 8 when Redial or CallTimeout enables the retry path, and
	// to 1 (no retry, the pre-fault-tolerance behavior) otherwise.
	MaxAttempts int
	// BaseDelay is the first backoff step (default 1ms of virtual time).
	BaseDelay time.Duration
	// MaxDelay caps the exponential schedule (default 200ms).
	MaxDelay time.Duration
	// CallTimeout bounds each RPC's wait for a response; 0 waits forever.
	// A timeout is what turns a silently dropped frame into a retriable
	// error.
	CallTimeout time.Duration
	// Seed drives the jitter stream; 0 derives one from the client name.
	Seed int64
}

// maxAttempts resolves the effective attempt budget.
func (c *Client) maxAttempts() int {
	if n := c.cfg.Retry.MaxAttempts; n > 0 {
		return n
	}
	if c.cfg.Redial != nil || c.cfg.Retry.CallTimeout > 0 {
		return 8
	}
	return 1
}

// retriable reports whether err indicates a transport fault the retry layer
// may act on. RemoteError (the server executed and said no) and ErrBadFrame
// (protocol corruption) are deliberately excluded.
func retriable(err error) bool {
	return errors.Is(err, rpc.ErrConnClosed) ||
		errors.Is(err, rpc.ErrClientClosed) ||
		errors.Is(err, rpc.ErrTimeout)
}

// backoffDelay returns the sleep before retry attempt (0-based): an
// exponential schedule base<<attempt capped at max, with jitter drawn from
// rng uniformly in [d/2, d) so synchronized clients desynchronize.
func backoffDelay(attempt int, base, max time.Duration, rng *rand.Rand) time.Duration {
	if base <= 0 {
		base = time.Millisecond
	}
	if max <= 0 {
		max = 200 * time.Millisecond
	}
	d := base
	for i := 0; i < attempt && d < max; i++ {
		d *= 2
	}
	if d > max {
		d = max
	}
	half := d / 2
	return half + time.Duration(rng.Int63n(int64(half)+1))
}

// retrySeed derives the default jitter seed from the client name.
func retrySeed(name string) int64 {
	h := fnv.New64a()
	h.Write([]byte(name))
	return int64(h.Sum64())
}

// commitIDBase namespaces commit IDs per client: the name hash occupies the
// high 32 bits, leaving 2^32 sequence numbers per client. The MDS dedup
// table is keyed (owner, id) and does not depend on this; the namespace only
// keeps commits from different clients distinct when their spans land in one
// shared tracer.
func commitIDBase(name string) uint64 {
	h := fnv.New32a()
	h.Write([]byte(name))
	return uint64(h.Sum32()) << 32
}

// sleepBackoff sleeps the backoff delay for one retry attempt.
func (c *Client) sleepBackoff(attempt int) {
	c.rngMu.Lock()
	d := backoffDelay(attempt, c.cfg.Retry.BaseDelay, c.cfg.Retry.MaxDelay, c.rng)
	c.rngMu.Unlock()
	c.clk.Sleep(d)
}

// serverLoad reads the load byte piggybacked on the shard-0 connection (the
// compound controller tracks one representative server).
func (c *Client) serverLoad() uint8 {
	m, _ := c.links[0].conn()
	return m.ServerLoad()
}

// recoverConn reacts to a retriable failure of a call issued on link l's
// connection with generation gen. It returns nil when the caller may retry,
// or an error when the fault cannot be recovered (no redial configured and
// the connection is dead).
func (c *Client) recoverConn(l *mdsLink, old *rpc.Client, gen uint64, cause error) error {
	if f := l.dead(); f != nil {
		return f // shard-map mismatch: redialling cannot fix the wiring
	}
	if c.cfg.Redial == nil {
		if errors.Is(cause, rpc.ErrTimeout) {
			return nil // connection still usable; retry in place
		}
		return cause
	}
	l.mu.Lock()
	if l.fatal != nil || l.gen != gen {
		// The link was killed meanwhile, or another goroutine already
		// replaced the connection.
		f := l.fatal
		l.mu.Unlock()
		return f
	}
	nc, err := c.cfg.Redial(l.shard)
	if err != nil {
		l.mu.Unlock()
		return err
	}
	if d := c.cfg.Retry.CallTimeout; d > 0 {
		nc.SetCallTimeout(d)
	}
	l.totalCalls += old.Calls()
	old.Close()
	l.mds = nc
	l.gen++
	l.mu.Unlock()
	c.hello(l, nc)
	// Replies were lost with the old connection, maybe one that recalled:
	// nothing delegated over it is trusted on the new one. (After the hello:
	// if the MDS restarted, every instant before the sessions have moved on
	// is one in which a commit of the dead session can still leave.)
	c.dropLinkDelegs(l, false)
	return nil
}

// hello (re)introduces the client to one MDS shard, learns its incarnation,
// and checks that the shard speaks this client's protocol and carries the
// shard it was mounted as. A changed incarnation means that shard restarted
// and recovered: every delegation and uncommitted allocation this client
// homed there was reclaimed, so the local session state for that shard must
// be re-established.
func (c *Client) hello(l *mdsLink, mds *rpc.Client) {
	var h proto.HelloResp
	if err := mds.Call(proto.OpHello, &proto.HelloReq{Owner: c.cfg.Name, ProtoVersion: proto.ProtoLatest}, &h); err != nil {
		return // next failure will retry the handshake
	}
	if err := c.checkShardMap(l, &h); err != nil {
		// The connection reaches the wrong shard: kill the link rather than
		// route through it. Every subsequent call fails with the mismatch
		// error instead of scattering the namespace.
		l.kill(err)
		return
	}
	l.helloed.Store(true)
	l.mu.Lock()
	restarted := l.sawIncarnation && h.Incarnation != l.incarnation
	l.incarnation = h.Incarnation
	l.sawIncarnation = true
	l.mu.Unlock()
	if restarted {
		c.reestablish(l.shard)
	}
}

// reestablish rolls the client session back to what one recovered MDS shard
// still knows. meta.Recover reclaimed this client's delegations and freed
// its uncommitted allocations there, so: that shard's space pool is
// discarded and rebuilt, and every file homed on that shard drops its
// uncommitted extents, write-behind data, cached pages, and local size
// growth. Files homed on other shards, and their shards' pools, are
// untouched — their state is still live. Delayed-commit data that was never
// fsynced is lost — exactly the window the paper's §III-A contract concedes.
func (c *Client) reestablish(shard int) {
	l := c.links[shard]
	// The old pool closes first and the new one opens last: the recovered
	// MDS tends to delegate the very same chunk again, and an extent carved
	// from it into a file that still lists the dead session's extents would
	// share their blocks — in one commit the new MDS has no reason to refuse.
	// In between, writes allocate at the MDS (coverLocalLocked).
	old := l.space.Load()
	if old != nil {
		old.Close() // the recovered MDS no longer tracks these spans
	}
	c.mu.Lock()
	files := c.sortedFilesLocked(shard)
	c.mu.Unlock()
	for _, fs := range files {
		fs.mu.Lock()
		// Let in-flight device writes land first — and only those: the
		// file's write-back routine may be parked in a layout-get against
		// the dead MDS, or be the very goroutine running this recovery, so
		// it is never waited for. Bumping the session makes it drop what it
		// took when its RPC returns; what it has not taken is dropped here.
		for fs.pendingWrites > 0 {
			fs.cond.Wait()
		}
		fs.session++
		dropped := fs.dropDeferredLocked()
		kept := fs.extents[:0]
		for _, e := range fs.extents {
			if e.State == meta.StateCommitted {
				kept = append(kept, e)
			}
		}
		fs.extents = kept
		fs.size = fs.committedSize
		fs.dirtyMeta = false
		fs.pages = make(map[int64][]byte)
		fs.cond.Broadcast()
		fs.mu.Unlock()
		c.releaseDirty(dropped)
	}
	if old != nil {
		l.space.Store(c.newSpacePool(l))
	}
	// The recovered MDS knows nothing of the file delegations its predecessor
	// granted, and numbers its recalls from zero. Last, like the pool: nothing
	// here is worth delaying the session bump above for.
	c.dropLinkDelegs(l, true)
}

// callIdem issues an idempotent RPC on one shard's link with timeout/backoff
// retry across reconnects. Must not be used for ops whose re-execution has
// side effects.
func (c *Client) callIdem(l *mdsLink, op uint16, req wire.Marshaler, resp wire.Unmarshaler) error {
	return c.callIdemIn(l, op, req, resp, nil)
}

// callIdemIn is callIdem for a request that is only good in the MDS session
// it was built in: live, when not nil, is asked before every (re)send, and a
// session that has moved on ends the retries with errSessionLost instead of
// carrying the request into the next one.
func (c *Client) callIdemIn(l *mdsLink, op uint16, req wire.Marshaler, resp wire.Unmarshaler, live func() bool) error {
	if f := l.dead(); f != nil {
		return f
	}
	attempts := c.maxAttempts()
	for attempt := 0; ; attempt++ {
		// The connection first, the session second (see sendCommits).
		mds, gen := l.conn()
		if live != nil && !live() {
			return errSessionLost
		}
		err := mds.Call(op, req, resp)
		if err == nil || !retriable(err) || attempt >= attempts-1 {
			return err
		}
		if rerr := c.recoverConn(l, mds, gen, err); rerr != nil {
			return err
		}
		c.st.retries.Inc()
		c.sleepBackoff(attempt)
	}
}

// sendCommit ships one commit request, retrying over timeouts and
// reconnects. The request carries a CommitID the MDS dedupes, so a
// retransmission after a lost reply cannot apply twice. The ordered-write
// barrier is re-asserted immediately before the send: the data the extents
// name must be durable before the MDS can learn about it, on the first
// transmission and on every retry alike. So is the session: a reconnect that
// found a restarted MDS ends the retries (errSessionLost).
func (c *Client) sendCommit(bc builtCommit, resp *proto.CommitResp) error {
	_, err := c.sendCommits([]builtCommit{bc}, func(mds *rpc.Client) ([]rpc.SubResult, error) {
		return nil, mds.Call(proto.OpCommit, bc.req, resp)
	})
	return err
}

// sendCompound ships a compound frame of commit sub-operations — all homed
// on one shard — with the same retry rules as sendCommit; every
// sub-operation carries its own CommitID, so replaying the whole frame is
// safe.
func (c *Client) sendCompound(built []builtCommit, ops []rpc.SubOp) ([]rpc.SubResult, error) {
	return c.sendCommits(built, func(mds *rpc.Client) ([]rpc.SubResult, error) {
		return mds.Compound(ops)
	})
}

// sendCommits is the retry loop behind sendCommit and sendCompound: send
// transmits the frame carrying built on the connection it is given.
func (c *Client) sendCommits(built []builtCommit, send func(*rpc.Client) ([]rpc.SubResult, error)) ([]rpc.SubResult, error) {
	for _, bc := range built {
		bc.fs.mu.Lock()
		bc.fs.waitWritesLocked()
		bc.fs.mu.Unlock()
	}
	l := c.shardFor(built[0].fs.id)
	if f := l.dead(); f != nil {
		return nil, f
	}
	attempts := c.maxAttempts()
	for attempt := 0; ; attempt++ {
		// The connection first, the session second: a connection taken before
		// a re-establishment is closed by the time the session moves on.
		mds, gen := l.conn()
		for _, bc := range built {
			if bc.stale() {
				return nil, errSessionLost
			}
		}
		results, err := send(mds)
		if err == nil || !retriable(err) || attempt >= attempts-1 {
			return results, err
		}
		if rerr := c.recoverConn(l, mds, gen, err); rerr != nil {
			return results, err
		}
		c.st.retries.Inc()
		c.sleepBackoff(attempt)
	}
}

// newSpacePool builds link l's delegation space pool from the client config.
func (c *Client) newSpacePool(l *mdsLink) *core.SpacePool {
	return core.NewSpacePool(core.SpacePoolConfig{
		ChunkSize: c.cfg.DelegationChunk,
		Delegate:  func(size int64) (alloc.Span, error) { return c.delegate(l, size) },
	})
}

// spacePool returns the live delegation pool of file id's home shard, or nil
// when delegation is disabled.
func (c *Client) spacePool(id meta.FileID) *core.SpacePool {
	return c.shardFor(id).space.Load()
}
