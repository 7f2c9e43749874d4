// Package mds implements the Redbud metadata server: the RPC face over the
// meta.Store. Clients apply for or commit metadata through network RPCs
// while reading and writing file data directly on the shared disk array
// (§V-A). The server's daemon-thread pool (internal/rpc) is the resource
// Figure 7 sweeps; every reply piggybacks a load byte that clients feed to
// the adaptive compound controller.
package mds

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"redbud/internal/alloc"
	"redbud/internal/clock"
	"redbud/internal/meta"
	"redbud/internal/netsim"
	"redbud/internal/obs"
	"redbud/internal/proto"
	"redbud/internal/rpc"
	"redbud/internal/stats"
	"redbud/internal/wire"
)

// Config assembles an MDS.
type Config struct {
	Store *meta.Store
	Clock clock.Clock
	// Daemons is the RPC worker pool size (Figure 7: 1, 8, 16).
	Daemons int
	// OpCost is the simulated CPU cost per metadata operation.
	OpCost time.Duration
	// FrameCost is the per-RPC-frame overhead, paid once per frame no
	// matter how many compounded operations it carries.
	FrameCost time.Duration
	// ContentionPerDaemon models multi-thread contention (Figure 7's
	// 16-daemon degradation).
	ContentionPerDaemon float64
	// CommitCheck, if set, is invoked with every extent list a commit
	// carries before it is applied. The test harness installs a
	// durability oracle here to assert the ordered-write invariant on
	// every single commit the MDS processes.
	CommitCheck func([]meta.Extent) error
	// LeaseTimeout revokes a client's delegations and orphan allocations
	// after this much inactivity (0 disables lease expiry).
	LeaseTimeout time.Duration
	// Incarnation identifies this MDS process lifetime; a harness bumps it
	// on every restart. Clients compare the value returned by OpHello
	// across reconnects to detect that a recovery happened (defaults to 1).
	Incarnation uint64
	// ShardIndex/ShardCount place this server in a sharded namespace
	// (advertised to clients via OpHello). Zero ShardCount means the
	// single-shard topology {0, 1}. They must match the store's Config.
	ShardIndex uint32
	ShardCount uint32
	// Tracer, if non-nil, records mds.commit and namespace-op spans on track
	// "mds" ("mds<i>" when sharded, so every shard exports as its own trace
	// process), plus the rpc.queue / rpc.process spans of the daemon pool.
	// Requests carrying a trace context get their handler spans linked
	// under the client span that issued them.
	Tracer *obs.Tracer
}

// commitWindow bounds how many recently applied commit IDs the MDS
// remembers per owner for duplicate suppression.
const commitWindow = 1024

// dedupTable remembers recently applied commit IDs per owner, with the
// encoded response each produced, so a retransmitted commit is answered
// from memory instead of re-applied.
//
// The window is keyed (owner, commit ID) and lives on the server, NOT on the
// connection: a client that loses its link and is re-routed back to the same
// shard re-handshakes on a fresh connection, and its retransmission must
// still hit the window. Each shard keeps its own table — a commit always
// routes to its inode's home shard, so dedup state is never expected to
// survive cross-shard re-routing; a retransmission mis-routed to a different
// shard is refused by that shard's store (which does not own the inode)
// rather than silently absorbed by a window it was never recorded in.
type dedupTable struct {
	mu     sync.Mutex
	owners map[string]*ownerDedup
}

type ownerDedup struct {
	resp map[uint64][]byte
	fifo []uint64 // insertion order, for window eviction
}

func (t *dedupTable) lookup(owner string, id uint64) ([]byte, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	od := t.owners[owner]
	if od == nil {
		return nil, false
	}
	r, ok := od.resp[id]
	return r, ok
}

func (t *dedupTable) record(owner string, id uint64, resp []byte) {
	t.mu.Lock()
	defer t.mu.Unlock()
	od := t.owners[owner]
	if od == nil {
		od = &ownerDedup{resp: make(map[uint64][]byte)}
		t.owners[owner] = od
	}
	if _, dup := od.resp[id]; dup {
		return
	}
	od.resp[id] = resp
	od.fifo = append(od.fifo, id)
	if len(od.fifo) > commitWindow {
		delete(od.resp, od.fifo[0])
		od.fifo = od.fifo[1:]
	}
}

func (t *dedupTable) drop(owner string) {
	t.mu.Lock()
	delete(t.owners, owner)
	t.mu.Unlock()
}

// Server is the metadata server.
type Server struct {
	store *meta.Store
	// delegs is the store's file-delegation table: handlers grant through
	// the store, and wait here for the recalls a mutation ran into.
	delegs *meta.FileDelegs
	rpc    *rpc.Server
	clk    clock.Clock
	cfg    Config

	// lastSeen maps owner -> *atomic.Int64 (UnixNano of last activity).
	// touch runs on every RPC across all daemon threads; after the first
	// request from an owner it is a lock-free load + atomic store, rather
	// than every daemon serializing on one mutex.
	lastSeen sync.Map

	// track is the trace track prefix for handler spans: "mds" single-shard,
	// "mds<i>" when sharded, so each shard exports as its own trace process.
	track string

	dedup     dedupTable
	dedupHits atomic.Int64

	// commitLat is the server-side commit handling latency (dispatch →
	// response encoded), always collected: one histogram per server is
	// cheap, and redbud-top reads it live.
	commitLat *stats.Histogram
}

// New builds the MDS and its RPC daemon pool.
func New(cfg Config) *Server {
	if cfg.Store == nil {
		panic("mds: nil store")
	}
	if cfg.Clock == nil {
		cfg.Clock = clock.Real(1)
	}
	if cfg.Incarnation == 0 {
		cfg.Incarnation = 1
	}
	if cfg.ShardCount == 0 {
		cfg.ShardCount = 1
	}
	track := "mds"
	if cfg.ShardCount > 1 {
		track = fmt.Sprintf("mds%d", cfg.ShardIndex)
	}
	s := &Server{store: cfg.Store, delegs: cfg.Store.FileDelegs(), clk: cfg.Clock, cfg: cfg, track: track, commitLat: stats.NewLatencyHistogram()}
	s.dedup.owners = make(map[string]*ownerDedup)
	if cfg.Incarnation > 1 {
		// Clients may still be serving opens under leases the previous
		// incarnation backed; nothing here knows what they hold.
		s.delegs.BeginGrace()
	}
	s.rpc = rpc.NewServer(rpc.ServerConfig{
		TimedHandler:        s.handle,
		Daemons:             cfg.Daemons,
		OpCost:              cfg.OpCost,
		FrameCost:           cfg.FrameCost,
		ContentionPerDaemon: cfg.ContentionPerDaemon,
		Clock:               cfg.Clock,
		Tracer:              cfg.Tracer,
		TraceTrack:          track,
	})
	return s
}

// Store exposes the underlying metadata store (harness and tests).
func (s *Server) Store() *meta.Store { return s.store }

// RPC exposes the rpc server (stats).
func (s *Server) RPC() *rpc.Server { return s.rpc }

// Serve accepts connections until the listener closes.
func (s *Server) Serve(l *netsim.Listener) { s.rpc.Serve(l) }

// ServeConn serves a single connection (TCP deployment).
func (s *Server) ServeConn(c netsim.Conn) { s.rpc.ServeConn(c) }

// Close stops the daemon pool.
func (s *Server) Close() { s.rpc.Close() }

// touch records client activity for lease tracking.
func (s *Server) touch(owner string) {
	if owner == "" || s.cfg.LeaseTimeout <= 0 {
		return
	}
	now := s.clk.Now().UnixNano()
	if v, ok := s.lastSeen.Load(owner); ok {
		v.(*atomic.Int64).Store(now)
		return
	}
	v, _ := s.lastSeen.LoadOrStore(owner, new(atomic.Int64))
	v.(*atomic.Int64).Store(now)
}

// ExpireLeases revokes clients idle longer than the lease timeout, returning
// the orphan bytes reclaimed. The harness calls this periodically; recovery
// calls the meta layer directly.
func (s *Server) ExpireLeases() int64 {
	if s.cfg.LeaseTimeout <= 0 {
		return 0
	}
	now := s.clk.Now()
	var expired []string
	s.lastSeen.Range(func(key, value any) bool {
		seen := time.Unix(0, value.(*atomic.Int64).Load())
		if now.Sub(seen) > s.cfg.LeaseTimeout {
			expired = append(expired, key.(string))
		}
		return true
	})
	var reclaimed int64
	for _, owner := range expired {
		s.lastSeen.Delete(owner)
		// An expired client's session is over; its commit IDs can never be
		// legitimately retransmitted.
		s.dedup.drop(owner)
		reclaimed += s.store.ClientGone(owner)
	}
	return reclaimed
}

// RegisterMetrics exposes the MDS counters — including those of its RPC
// daemon pool and metadata store — in a metrics registry.
func (s *Server) RegisterMetrics(r *obs.Registry) {
	if r == nil {
		return
	}
	r.CounterFunc("redbud_mds_dedup_hits_total", "retransmitted commits answered from the dedup table", nil,
		s.dedupHits.Load)
	r.RegisterHistogram("redbud_mds_commit_latency_seconds", "server-side commit handling latency", nil, s.commitLat)
	r.CounterFunc("redbud_mds_deleg_grants_total", "file delegations granted", nil,
		func() int64 { return s.delegs.Stats().Grants })
	r.CounterFunc("redbud_mds_deleg_recalls_total", "file delegations recalled for another owner's mutation", nil,
		func() int64 { return s.delegs.Stats().Recalls })
	r.CounterFunc("redbud_mds_deleg_recall_lapses_total", "recalls that ended by lease lapse, not acknowledgement", nil,
		func() int64 { return s.delegs.Stats().Lapses })
	r.GaugeFunc("redbud_mds_delegations", "file delegations currently held", nil,
		func() int64 { return s.delegs.Stats().Held })
	r.RegisterHistogram("redbud_mds_deleg_recall_wait_seconds", "time mutations waited for delegation recalls", nil, s.delegs.RecallWaits())
	s.rpc.RegisterMetrics(r, obs.Labels{"server": "mds"})
	s.store.RegisterMetrics(r)
}

// nsStart samples the handler start time for a namespace-op span, or zero
// when the request carries no trace context (or tracing is off) so nsSpan
// becomes a no-op and the untraced path stays allocation-free.
func (s *Server) nsStart(tc proto.TraceCtx) time.Time {
	if tc.TraceID != 0 && s.cfg.Tracer.Enabled() {
		return s.clk.Now()
	}
	return time.Time{}
}

// nsSpan records one namespace-op handler span linked under the client phase
// span that issued the request. Spans are recorded on success and failure
// alike: an aborted saga leg is exactly the kind of latency a stitched trace
// should show.
func (s *Server) nsSpan(name string, tc proto.TraceCtx, start time.Time) {
	if start.IsZero() {
		return
	}
	s.cfg.Tracer.RecordSpan(obs.Span{
		Track: s.track, Name: name,
		TraceID: tc.TraceID, SpanID: obs.NewSpanID(tc.SpanID, name), Parent: tc.SpanID,
		Start: start, End: s.clk.Now(),
	})
}

// arrive takes in the delegation context of an attribute-bearing request: the
// owner's lease is mirrored from now and the recalls it echoes are over.
func (s *Server) arrive(dc proto.DelegCtx) {
	if dc.Owner != "" {
		s.touch(dc.Owner)
		s.delegs.Arrive(dc.Owner, dc.Ack)
	}
}

// ack takes in the delegation context of a request whose reply carries no
// attributes — and so no recalls: it acknowledges, and renews nothing.
func (s *Server) ack(dc proto.DelegCtx) {
	if dc.Owner != "" {
		s.touch(dc.Owner)
		s.delegs.Ack(dc.Owner, dc.Ack)
	}
}

// attrReply encodes an attribute-bearing reply. To a request that named its
// owner it adds the grant and every recall the owner has not acknowledged —
// on every such reply, so that one the owner never received cannot have been
// the only one to say so.
func (s *Server) attrReply(a meta.Attr, granted bool, dc proto.DelegCtx) []byte {
	resp := proto.FromAttr(a)
	if dc.Owner != "" {
		resp.Granted = granted
		resp.RecallSeq, resp.Recalls = s.delegs.Pending(dc.Owner)
	}
	return wire.Encode(&resp)
}

// mutate applies a mutation — a namespace change or a commit — that other
// owners' file delegations may stand in the way of, returning what begin
// returns. The store refuses it (having issued the recalls) until they are
// back; the wait happens here, on the daemon thread, with no store lock held
// and never longer than meta.DelegTerm. A directory mutation keeps new
// grants out from its first refusal until it has been applied. begin is told
// the modeled instant the mutation is applied at: at, or, after a recall
// wait, whose end is not modeled, the instant the wait ended.
func (s *Server) mutate(at time.Time, begin func(at time.Time) (meta.Durable, error)) (durable meta.Durable, err error) {
	frozen := false
	for {
		durable, err = begin(at)
		held, ok := err.(*meta.DelegHeld)
		if !ok {
			if frozen {
				s.delegs.Thaw()
			}
			return durable, err
		}
		if held.Dir && !frozen {
			s.delegs.Freeze()
			frozen = true
		}
		s.delegs.Await(held.Recalls)
		at = s.clk.Now()
	}
}

// onceDurable hands the completion of an applied journaled operation to the
// frame's completion stage: once durable returned nil, reply (nil for an
// empty reply) builds the reply, which leaves no earlier than the modeled
// instant the record became durable. An operation the store refused (err !=
// nil) fails at once.
func onceDurable(durable meta.Durable, err error, reply func() ([]byte, error)) ([]byte, error) {
	if err != nil {
		return nil, err
	}
	return nil, rpc.Pending(func() ([]byte, time.Time, error) {
		at, err := durable()
		if err != nil || reply == nil {
			return nil, at, err
		}
		body, err := reply()
		return body, at, err
	})
}

// nsOnceDurable is onceDurable for a namespace-op handler whose span, started
// at start, ends once the operation is durable or refused.
func (s *Server) nsOnceDurable(name string, tc proto.TraceCtx, start time.Time, durable meta.Durable, err error, reply func() ([]byte, error)) ([]byte, error) {
	if err != nil {
		s.nsSpan(name, tc, start)
		return nil, err
	}
	return onceDurable(func() (time.Time, error) {
		at, err := durable()
		s.nsSpan(name, tc, start)
		return at, err
	}, nil, reply)
}

// layoutReply encodes the reply to a layout-get: the layout and the file's
// committed size.
func (s *Server) layoutReply(lay meta.Layout) ([]byte, error) {
	attr, err := s.store.GetAttr(lay.File)
	if err != nil {
		return nil, err
	}
	resp := proto.LayoutResp{File: lay.File, Size: attr.Size, Extents: lay.Extents}
	return wire.Encode(&resp), nil
}

// completeCommit is the completion half of OpCommit: it waits for the applied
// commit's journal record, then builds the reply and remembers it for
// retransmissions. It returns the modeled instant the record became durable.
func (s *Server) completeCommit(req *proto.CommitReq, start time.Time, tc obs.SpanContext, durable meta.Durable) ([]byte, time.Time, error) {
	at, err := durable()
	if err != nil {
		return nil, at, err
	}
	a, err := s.store.GetAttr(req.File)
	if err != nil {
		return nil, at, err
	}
	resp := proto.CommitResp{Size: a.Size}
	out := wire.Encode(&resp)
	end := s.clk.Now()
	s.commitLat.ObserveDuration(end.Sub(start))
	if s.cfg.Tracer.Enabled() && req.CommitID != 0 {
		s.cfg.Tracer.RecordSpan(obs.Span{
			Track: s.track, Name: obs.SpanMDSCommit, CommitID: req.CommitID,
			TraceID: req.Trace.TraceID, SpanID: tc.SpanID, Parent: req.Trace.SpanID,
			Start: start, End: end,
		})
	}
	if req.CommitID != 0 {
		// Only successful commits are remembered: a failed commit may
		// legitimately succeed on retry, so it must reach the store.
		s.dedup.record(req.Owner, req.CommitID, out)
	}
	return out, at, nil
}

// handle dispatches one decoded RPC operation. Every journaled operation is
// applied here, on the daemon, and returns an rpc.Pending: the wait for its
// journal record, and the reply built after it, belong to the connection's
// completion stage, so no daemon waits for the journal. at is the modeled
// instant the daemon charged the operation to; every journal record is
// stamped with it, or, after a wait whose end is not modeled, with the
// instant the wait ended.
func (s *Server) handle(at time.Time, op uint16, body []byte) ([]byte, error) {
	switch op {
	case proto.OpPing:
		return nil, nil

	case proto.OpLookup:
		var req proto.LookupReq
		if err := wire.Decode(body, &req); err != nil {
			return nil, err
		}
		s.arrive(req.Deleg)
		a, granted, err := s.store.LookupAs(req.Deleg.Owner, req.Parent, req.Name)
		if err != nil {
			return nil, err
		}
		return s.attrReply(a, granted, req.Deleg), nil

	case proto.OpCreate:
		var req proto.CreateReq
		if err := wire.Decode(body, &req); err != nil {
			return nil, err
		}
		s.arrive(req.Deleg)
		a, granted, durable, err := s.store.BeginCreate(at, req.Deleg.Owner, req.Parent, req.Name, req.Type)
		return onceDurable(durable, err, func() ([]byte, error) { return s.attrReply(a, granted, req.Deleg), nil })

	case proto.OpGetAttr:
		var req proto.GetAttrReq
		if err := wire.Decode(body, &req); err != nil {
			return nil, err
		}
		s.arrive(req.Deleg)
		a, granted, err := s.store.GetAttrAs(req.Deleg.Owner, req.ID)
		if err != nil {
			return nil, err
		}
		return s.attrReply(a, granted, req.Deleg), nil

	case proto.OpReadDir:
		var req proto.ReadDirReq
		if err := wire.Decode(body, &req); err != nil {
			return nil, err
		}
		ents, err := s.store.ReadDir(req.ID)
		if err != nil {
			return nil, err
		}
		resp := proto.ReadDirResp{Entries: ents}
		return wire.Encode(&resp), nil

	case proto.OpRemove:
		var req proto.RemoveReq
		if err := wire.Decode(body, &req); err != nil {
			return nil, err
		}
		s.ack(req.Deleg)
		durable, err := s.mutate(at, func(at time.Time) (meta.Durable, error) {
			return s.store.BeginRemove(at, req.Deleg.Owner, req.Parent, req.Name)
		})
		return onceDurable(durable, err, nil)

	case proto.OpLayoutGet:
		var req proto.LayoutGetReq
		if err := wire.Decode(body, &req); err != nil {
			return nil, err
		}
		s.touch(req.Owner)
		if req.Flags.Has(meta.LayoutWrite) {
			lay, durable, err := s.store.BeginAllocLayout(at, req.Owner, req.File, req.Off, req.Len)
			return onceDurable(durable, err, func() ([]byte, error) { return s.layoutReply(lay) })
		}
		// A reader sees committed extents only, whatever other bits the
		// frame carries: the ordered-write guarantee means uncommitted data
		// may not exist yet.
		lay, err := s.store.GetLayout(req.File, req.Off, req.Len)
		if err != nil {
			return nil, err
		}
		return s.layoutReply(lay)

	case proto.OpCommit:
		var req proto.CommitReq
		if err := wire.Decode(body, &req); err != nil {
			return nil, err
		}
		s.touch(req.Owner)
		if req.CommitID != 0 {
			if cached, ok := s.dedup.lookup(req.Owner, req.CommitID); ok {
				s.dedupHits.Add(1)
				return cached, nil
			}
		}
		if s.cfg.CommitCheck != nil {
			if err := s.cfg.CommitCheck(req.Extents); err != nil {
				return nil, fmt.Errorf("mds: ordered-write violation: %w", err)
			}
		}
		start := s.clk.Now()
		// A trace context links this handler's span (and the store's
		// lockwait/apply/journal children) under the client's commit span.
		var tc obs.SpanContext
		if req.Trace.TraceID != 0 {
			tc = obs.SpanContext{TraceID: req.Trace.TraceID, SpanID: obs.NewSpanID(req.Trace.SpanID, obs.SpanMDSCommit)}
		}
		// Another client may be serving opens of this file from its cache;
		// the commit applies once its delegation is back.
		durable, err := s.mutate(at, func(at time.Time) (meta.Durable, error) {
			return s.store.BeginCommit(at, req.Owner, req.File, req.Extents, req.Size, req.MTime, req.CommitID, tc)
		})
		if err != nil {
			return nil, err
		}
		// Applied and on its way to the journal. The reply — and the dedup
		// entry that would answer a retransmission — wait until the record is
		// durable, but the daemon first applies the rest of the frame.
		return nil, rpc.Pending(func() ([]byte, time.Time, error) { return s.completeCommit(&req, start, tc, durable) })

	case proto.OpDelegate:
		var req proto.DelegateReq
		if err := wire.Decode(body, &req); err != nil {
			return nil, err
		}
		s.touch(req.Owner)
		sp, durable, err := s.store.BeginDelegate(at, req.Owner, req.Size)
		return onceDurable(durable, err, func() ([]byte, error) {
			resp := proto.SpanMsg{Dev: uint32(sp.Dev), Off: sp.Off, Len: sp.Len}
			return wire.Encode(&resp), nil
		})

	case proto.OpDelegReturn:
		var req proto.DelegReturnReq
		if err := wire.Decode(body, &req); err != nil {
			return nil, err
		}
		s.touch(req.Owner)
		sp := alloc.Span{Dev: int(req.Span.Dev), Off: req.Span.Off, Len: req.Span.Len}
		durable, err := s.store.BeginReturnDelegation(at, req.Owner, sp)
		return onceDurable(durable, err, nil)

	case proto.OpRename:
		var req proto.RenameReq
		if err := wire.Decode(body, &req); err != nil {
			return nil, err
		}
		s.ack(req.Deleg)
		durable, err := s.mutate(at, func(at time.Time) (meta.Durable, error) {
			return s.store.BeginRename(at, req.Deleg.Owner, req.SrcParent, req.SrcName, req.DstParent, req.DstName)
		})
		return onceDurable(durable, err, nil)

	case proto.OpHello:
		var req proto.HelloReq
		if err := wire.Decode(body, &req); err != nil {
			return nil, err
		}
		if req.ProtoVersion < proto.ProtoV5 {
			return nil, fmt.Errorf("mds: hello offers protocol v%d, this server speaks v%d", req.ProtoVersion, proto.ProtoV5)
		}
		s.touch(req.Owner)
		ver := min(req.ProtoVersion, proto.ProtoLatest)
		resp := proto.HelloResp{
			Incarnation: s.cfg.Incarnation, ProtoVersion: ver,
			ShardIndex: s.cfg.ShardIndex, ShardCount: s.cfg.ShardCount,
		}
		return wire.Encode(&resp), nil

	case proto.OpCreateDetached:
		var req proto.CreateDetachedReq
		if err := wire.Decode(body, &req); err != nil {
			return nil, err
		}
		start := s.nsStart(req.Trace)
		a, durable, err := s.store.BeginCreateDetached(at, req.Parent, req.Name, req.Type)
		return s.nsOnceDurable(obs.SpanMDSCreateDetached, req.Trace, start, durable, err, func() ([]byte, error) {
			resp := proto.FromAttr(a)
			return wire.Encode(&resp), nil
		})

	case proto.OpNSPrepare:
		var req proto.NSPrepareReq
		if err := wire.Decode(body, &req); err != nil {
			return nil, err
		}
		start := s.nsStart(req.Trace)
		s.ack(req.Deleg)
		durable, err := s.mutate(at, func(at time.Time) (meta.Durable, error) {
			return s.store.BeginNSPrepare(at, req.Deleg.Owner, req.File, req.Kind, req.Type, req.Parent, req.Name, req.DstParent, req.DstName)
		})
		return s.nsOnceDurable(obs.SpanMDSNSPrepare, req.Trace, start, durable, err, nil)

	case proto.OpDelegAck:
		var req proto.DelegCtx
		if err := wire.Decode(body, &req); err != nil {
			return nil, err
		}
		s.ack(req)
		return nil, nil

	case proto.OpNSCommit:
		var req proto.NSCommitReq
		if err := wire.Decode(body, &req); err != nil {
			return nil, err
		}
		start := s.nsStart(req.Trace)
		durable, err := s.store.BeginNSCommit(at, req.File, req.Kind)
		return s.nsOnceDurable(obs.SpanMDSNSCommit, req.Trace, start, durable, err, nil)

	case proto.OpNSAbort:
		var req proto.NSAbortReq
		if err := wire.Decode(body, &req); err != nil {
			return nil, err
		}
		start := s.nsStart(req.Trace)
		durable, err := s.store.BeginNSAbort(at, req.File, req.Kind)
		return s.nsOnceDurable(obs.SpanMDSNSAbort, req.Trace, start, durable, err, nil)

	case proto.OpLinkRemote:
		var req proto.LinkRemoteReq
		if err := wire.Decode(body, &req); err != nil {
			return nil, err
		}
		start := s.nsStart(req.Trace)
		durable, err := s.store.BeginLinkRemote(at, req.Parent, req.Name, req.Child, req.Type)
		return s.nsOnceDurable(obs.SpanMDSLinkRemote, req.Trace, start, durable, err, nil)

	case proto.OpUnlinkRemote:
		var req proto.UnlinkRemoteReq
		if err := wire.Decode(body, &req); err != nil {
			return nil, err
		}
		start := s.nsStart(req.Trace)
		durable, err := s.store.BeginUnlinkRemote(at, req.Parent, req.Name, req.Child)
		return s.nsOnceDurable(obs.SpanMDSUnlinkRemote, req.Trace, start, durable, err, nil)
	}
	return nil, fmt.Errorf("mds: unknown op %d", op)
}
