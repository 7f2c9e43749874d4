package client

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"redbud/internal/core"
	"redbud/internal/meta"
	"redbud/internal/obs"
	"redbud/internal/proto"
	"redbud/internal/rpc"
)

// mdsLink is the client's connection to one MDS shard, with the reconnect
// bookkeeping that used to live on the Client when there was only one. Each
// shard fails, redials, and restarts independently: the incarnation is
// tracked per link, so one shard's recovery only invalidates the session
// state homed there.
type mdsLink struct {
	shard int

	// mu guards the connection, which redial may replace, plus the
	// reconnect bookkeeping. gen counts replacements so concurrent failures
	// reconnect once, not once per caller.
	mu             sync.Mutex
	mds            *rpc.Client
	gen            uint64
	totalCalls     int64 // RPCs issued on connections already closed
	incarnation    uint64
	sawIncarnation bool

	// helloed is set once a hello to this shard has succeeded; until then
	// requests on the link name no delegation owner (delegCtx), since the
	// client could not yet tell an MDS restart from a connection blip.
	helloed atomic.Bool

	// The shard's file-delegation session (namecache.go), guarded by
	// Client.mu, not mu: lease is until when delegations homed here may be
	// trusted, ackSeq the newest recall from here this client has processed.
	lease  time.Time
	ackSeq uint64

	// space is the double-space-pool of chunks this shard delegated (nil
	// without space delegation). A file's space is carved from its home
	// shard's pool, so each shard's allocator only ever sees its own chunks
	// committed. A restart of the shard swaps the pool wholesale
	// (reestablish), hence the atomic pointer.
	space atomic.Pointer[core.SpacePool]

	// fatal, once set, marks the link permanently unusable: the hello
	// reply proved the connection reaches the wrong shard, so routing
	// through it would scatter the namespace, or the client crashed.
	// Guarded by mu.
	fatal error
}

// kill marks the link permanently unusable and closes its connection: every
// later call fails with err, nothing is retried over it and nothing redials
// it.
func (l *mdsLink) kill(err error) {
	l.mu.Lock()
	l.fatal = err
	mds := l.mds
	l.mu.Unlock()
	mds.Close()
}

// dead returns the link's fatal error, if any.
func (l *mdsLink) dead() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.fatal
}

// conn returns the link's current connection and its generation; the
// generation lets a failed caller detect that another goroutine already
// replaced the connection.
func (l *mdsLink) conn() (*rpc.Client, uint64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.mds, l.gen
}

// calls totals RPCs across the link's live connection and any it replaced.
func (l *mdsLink) calls() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.totalCalls + l.mds.Calls()
}

// shardOf routes an inode to its home shard.
func (c *Client) shardOf(id meta.FileID) int { return meta.ShardOf(id, len(c.links)) }

// shardFor returns the link to an inode's home shard.
func (c *Client) shardFor(id meta.FileID) *mdsLink { return c.links[c.shardOf(id)] }

// checkShardMap validates a hello reply against the protocol and the
// topology the client was mounted with. A reply in another protocol version
// comes from a server this client cannot talk to. A shard-map mismatch means
// the caller wired connection i to a server running with a different -shard
// flag — routing through it would silently scatter the namespace. Either way
// the link is marked dead (a server reply, however misconfigured or
// byzantine, must never crash the client process).
func (c *Client) checkShardMap(l *mdsLink, h *proto.HelloResp) error {
	if h.ProtoVersion != proto.ProtoLatest {
		return fmt.Errorf("client: shard %d answered hello with protocol v%d, this client speaks v%d",
			l.shard, h.ProtoVersion, proto.ProtoLatest)
	}
	if int(h.ShardCount) != len(c.links) || int(h.ShardIndex) != l.shard {
		return fmt.Errorf("client: shard map mismatch: connection %d of %d reached server %d of %d",
			l.shard, len(c.links), h.ShardIndex, h.ShardCount)
	}
	return nil
}

// ---------------------------------------------------------------------------
// Cross-shard namespace orchestration
//
// The client drives the two-phase protocols; every step below the first is
// idempotent on the server, so each may be retried across timeouts and
// reconnects. A crash (of client or server) between steps leaves an intent
// that ResolveNSIntents rolls forward or back depending on whether the
// commit point — the dirent mutation on the parent's shard — was reached.

// definitiveFailure reports whether err proves the server rejected the
// operation without executing it — an application-level error carried in a
// reply frame. A transport failure (timeout, dead connection, retries
// exhausted) proves nothing: the operation may have committed durably with
// only the reply lost, so a rollback decided on it could contradict a commit
// point that was in fact reached. Cross-shard orchestration aborts its
// intents only on definitive failures; after an ambiguous one the intents
// stay live and quiesced resolution decides by probing the dirents.
func definitiveFailure(err error) bool {
	var re *rpc.RemoteError
	return errors.As(err, &re)
}

// beginSaga mints the trace identity for one cross-shard namespace saga: a
// fresh TraceID drawn from the commit-ID sequence (globally unique — the
// client-name hash occupies the high bits), with the root span's ID equal to
// the TraceID. Returns a zero context when tracing is off; every helper below
// then no-ops and no trace bytes go on the wire.
func (c *Client) beginSaga() (obs.SpanContext, time.Time) {
	if !c.tracer.Enabled() {
		return obs.SpanContext{}, time.Time{}
	}
	id := c.commitSeq.Add(1)
	return obs.SpanContext{TraceID: id, SpanID: id}, c.clk.Now()
}

// endSaga records the saga root span (ns.create / ns.remove / ns.rename) on
// the client's "<Name>/ns" track, spanning the whole orchestration.
func (c *Client) endSaga(name string, tc obs.SpanContext, start time.Time) {
	if tc.TraceID == 0 {
		return
	}
	c.tracer.RecordSpan(obs.Span{
		Track: c.trackNS, Name: name,
		TraceID: tc.TraceID, SpanID: tc.SpanID,
		Start: start, End: c.clk.Now(),
	})
}

// nsPhase tracks one in-flight saga leg's span identity.
type nsPhase struct {
	tc    obs.SpanContext // saga identity; zero when untraced
	name  string
	sid   uint64
	start time.Time
}

// beginPhase derives the span identity for one saga leg and the wire trace
// context to attach to the leg's request, so the server's handler span links
// under it.
func (c *Client) beginPhase(tc obs.SpanContext, name string) (nsPhase, proto.TraceCtx) {
	if tc.TraceID == 0 {
		return nsPhase{}, proto.TraceCtx{}
	}
	sid := obs.NewSpanID(tc.SpanID, name)
	return nsPhase{tc: tc, name: name, sid: sid, start: c.clk.Now()}, proto.TraceCtx{TraceID: tc.TraceID, SpanID: sid}
}

// endPhase records the leg's span, on success and failure alike — an aborted
// saga leg is exactly the kind of latency a stitched trace should show.
func (c *Client) endPhase(ph nsPhase) {
	if ph.tc.TraceID == 0 {
		return
	}
	c.tracer.RecordSpan(obs.Span{
		Track: c.trackNS, Name: ph.name,
		TraceID: ph.tc.TraceID, SpanID: ph.sid, Parent: ph.tc.SpanID,
		Start: ph.start, End: c.clk.Now(),
	})
}

// createCrossShard creates leaf under dir when the placement hash homes the
// new inode on a different shard than the parent's dirent table:
//
//  1. mint a detached inode (+ NSCreate intent) on the target shard;
//  2. insert the dirent on the parent's shard — the commit point;
//  3. graduate the intent on the target shard.
func (c *Client) createCrossShard(dir meta.FileID, leaf string, typ meta.FileType, target int) (proto.AttrResp, error) {
	tl, pl := c.links[target], c.shardFor(dir)
	saga, sagaStart := c.beginSaga()
	defer c.endSaga(obs.SpanNSCreate, saga, sagaStart)
	var attr proto.AttrResp
	// Minting is the one non-idempotent step (a retry would mint a second
	// inode), so like OpCreate it is not retried; a lost reply leaks an
	// intent that resolution aborts.
	ph, tc := c.beginPhase(saga, obs.SpanNSMint)
	mds, _ := tl.conn()
	err := mds.Call(proto.OpCreateDetached, &proto.CreateDetachedReq{Parent: dir, Name: leaf, Type: typ, Trace: tc}, &attr)
	c.endPhase(ph)
	if err != nil {
		return attr, err
	}
	ph, tc = c.beginPhase(saga, obs.SpanNSLink)
	err = c.callIdem(pl, proto.OpLinkRemote, &proto.LinkRemoteReq{Parent: dir, Name: leaf, Child: attr.ID, Type: typ, Trace: tc}, nil)
	c.endPhase(ph)
	if err != nil {
		// Roll the mint back only when the parent shard provably refused the
		// insert (best effort — an unreachable target shard resolves the
		// intent later). After an ambiguous transport failure the link may
		// have committed with the reply lost; aborting would free the inode
		// under a durable dirent, so leave the intent for resolution.
		if definitiveFailure(err) {
			ph, tc = c.beginPhase(saga, obs.SpanNSAbort)
			_ = c.callIdem(tl, proto.OpNSAbort, &proto.NSAbortReq{File: attr.ID, Kind: meta.NSCreate, Trace: tc}, nil)
			c.endPhase(ph)
		}
		return attr, err
	}
	// Past the commit point: the create happened. Graduation is best effort;
	// a leaked NSCreate intent with a live dirent always resolves to commit.
	ph, tc = c.beginPhase(saga, obs.SpanNSGraduate)
	_ = c.callIdem(tl, proto.OpNSCommit, &proto.NSCommitReq{File: attr.ID, Kind: meta.NSCreate, Trace: tc}, nil)
	c.endPhase(ph)
	return attr, nil
}

// removeCrossShard removes leaf (inode id, homed on another shard than the
// parent's dirent):
//
//  1. publish an NSRemove intent on the home shard (validates emptiness
//     for directories and blocks new entries from appearing under them);
//  2. delete the dirent on the parent's shard — the commit point;
//  3. commit on the home shard, freeing the inode and its space.
func (c *Client) removeCrossShard(dir meta.FileID, leaf string, id meta.FileID) error {
	hl, pl := c.shardFor(id), c.shardFor(dir)
	saga, sagaStart := c.beginSaga()
	defer c.endSaga(obs.SpanNSRemove, saga, sagaStart)
	var attr proto.AttrResp
	// The stat leg carries no wire context (GetAttr is a plain read shared
	// with every other caller); its client-side phase span still shows the
	// leg in the stitched tree.
	ph, _ := c.beginPhase(saga, obs.SpanNSStat)
	err := c.callIdem(hl, proto.OpGetAttr, &proto.GetAttrReq{ID: id}, &attr)
	c.endPhase(ph)
	if err != nil {
		return err
	}
	ph, tc := c.beginPhase(saga, obs.SpanNSPrepare)
	err = c.callIdem(hl, proto.OpNSPrepare, &proto.NSPrepareReq{
		File: id, Kind: meta.NSRemove, Type: attr.Type, Parent: dir, Name: leaf, Trace: tc, Deleg: c.delegCtx(hl),
	}, nil)
	c.endPhase(ph)
	if err != nil {
		return err
	}
	ph, tc = c.beginPhase(saga, obs.SpanNSUnlink)
	err = c.callIdem(pl, proto.OpUnlinkRemote, &proto.UnlinkRemoteReq{Parent: dir, Name: leaf, Child: id, Trace: tc}, nil)
	c.endPhase(ph)
	if err != nil {
		// Definitive refusal (entry moved by a rename, intent conflict):
		// the remove never reached its commit point, so roll it back. An
		// ambiguous failure may hide a committed unlink — aborting then
		// would leave the inode alive with no dirent anywhere — so the
		// intent stays live for resolution to probe.
		if definitiveFailure(err) {
			ph, tc = c.beginPhase(saga, obs.SpanNSAbort)
			_ = c.callIdem(hl, proto.OpNSAbort, &proto.NSAbortReq{File: id, Kind: meta.NSRemove, Trace: tc}, nil)
			c.endPhase(ph)
		}
		return err
	}
	ph, tc = c.beginPhase(saga, obs.SpanNSGraduate)
	_ = c.callIdem(hl, proto.OpNSCommit, &proto.NSCommitReq{File: id, Kind: meta.NSRemove, Trace: tc}, nil)
	c.endPhase(ph)
	return nil
}

// renameCrossShard moves a dirent between directories whose tables live on
// different shards. Only files move this way: a directory's subtree hangs
// off its own home shard, where neither parent shard could run a loop check.
//
//  1. publish NSRenameSrc on the source parent's shard (validates the
//     entry and freezes the inode's namespace state);
//  2. publish NSRenameDst on the destination parent's shard (reserves the
//     destination name);
//  3. commit the source intent — deleting the source dirent is the commit
//     point (resolution probes it: present → roll back, gone → forward);
//  4. commit the destination intent, inserting the new dirent.
func (c *Client) renameCrossShard(srcDir meta.FileID, srcLeaf string, dstDir meta.FileID, dstLeaf string) error {
	sl, dl := c.shardFor(srcDir), c.shardFor(dstDir)
	saga, sagaStart := c.beginSaga()
	defer c.endSaga(obs.SpanNSRename, saga, sagaStart)
	var ent proto.AttrResp
	// The lookup leg carries no wire context (a plain read shared with every
	// other caller); its client-side phase span still shows in the tree.
	ph, _ := c.beginPhase(saga, obs.SpanNSLookup)
	err := c.callIdem(sl, proto.OpLookup, &proto.LookupReq{Parent: srcDir, Name: srcLeaf}, &ent)
	c.endPhase(ph)
	if err != nil {
		return err
	}
	if ent.Type == meta.TypeDir {
		return fmt.Errorf("client: cross-shard directory rename not supported: %q", srcLeaf)
	}
	ph, tc := c.beginPhase(saga, obs.SpanNSPrepareSrc)
	err = c.callIdem(sl, proto.OpNSPrepare, &proto.NSPrepareReq{
		File: ent.ID, Kind: meta.NSRenameSrc, Type: ent.Type, Parent: srcDir, Name: srcLeaf, Trace: tc, Deleg: c.delegCtx(sl),
	}, nil)
	c.endPhase(ph)
	if err != nil {
		return err
	}
	ph, tc = c.beginPhase(saga, obs.SpanNSPrepareDst)
	err = c.callIdem(dl, proto.OpNSPrepare, &proto.NSPrepareReq{
		File: ent.ID, Kind: meta.NSRenameDst, Type: ent.Type, Parent: srcDir, Name: srcLeaf,
		DstParent: dstDir, DstName: dstLeaf, Trace: tc, Deleg: c.delegCtx(dl),
	}, nil)
	c.endPhase(ph)
	if err != nil {
		// Same rule as the other sagas: only a definitive refusal of the dst
		// reservation may unfreeze the source. If the dst intent might have
		// been published durably, dropping the src intent early would let
		// another operation move the source entry, after which resolution
		// would misread the dst probe and roll the insert forward.
		if definitiveFailure(err) {
			ph, tc = c.beginPhase(saga, obs.SpanNSAbort)
			_ = c.callIdem(sl, proto.OpNSAbort, &proto.NSAbortReq{File: ent.ID, Kind: meta.NSRenameSrc, Trace: tc}, nil)
			c.endPhase(ph)
		}
		return err
	}
	ph, tc = c.beginPhase(saga, obs.SpanNSCommitSrc)
	err = c.callIdem(sl, proto.OpNSCommit, &proto.NSCommitReq{File: ent.ID, Kind: meta.NSRenameSrc, Trace: tc}, nil)
	c.endPhase(ph)
	if err != nil {
		// The commit point was not provably reached; both intents stand and
		// resolution decides by probing the source dirent.
		return err
	}
	ph, tc = c.beginPhase(saga, obs.SpanNSCommitDst)
	_ = c.callIdem(dl, proto.OpNSCommit, &proto.NSCommitReq{File: ent.ID, Kind: meta.NSRenameDst, Trace: tc}, nil)
	c.endPhase(ph)
	return nil
}
