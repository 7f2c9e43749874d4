// Package proto defines the metadata RPC protocol spoken between Redbud
// clients and the MDS: operation codes and the wire encoding of every
// request and reply. Both sides marshal with internal/wire; the RPC layer
// (internal/rpc) carries the frames and, for delayed commit, batches several
// OpCommit bodies into one compound frame.
package proto

import (
	"time"

	"redbud/internal/meta"
	"redbud/internal/wire"
)

// Operation codes.
const (
	OpPing uint16 = iota + 1
	OpLookup
	OpCreate
	OpGetAttr
	OpReadDir
	OpRemove
	OpLayoutGet
	OpCommit
	OpDelegate
	OpDelegReturn
	_ // retired: a status probe nothing read; its code stays unused
	OpRename
	OpHello
	// Sharded namespace operations. The first four drive the two-phase
	// cross-shard protocols against an inode's home shard; the last two
	// manipulate the remote-edge dirent on the parent's shard.
	OpCreateDetached
	OpNSPrepare
	OpNSCommit
	OpNSAbort
	OpLinkRemote
	OpUnlinkRemote
	// File delegations: the holder's immediate acknowledgement of a
	// recall. Body is a bare DelegCtx; the reply is empty.
	OpDelegAck
)

// The protocol version. Every client says hello to every shard at mount and
// offers ProtoLatest; the MDS refuses an offer below ProtoV5 and answers a
// higher one with ProtoLatest. An owner that never said hello gets no
// delegations.
const (
	// ProtoV5 is the one protocol this tree speaks: the layout flags byte,
	// the shard coordinates in the hello
	// reply and the cross-shard ops, trace contexts on commit and namespace
	// requests, and exclusive per-file delegations (DelegCtx, the grant and
	// recalls on AttrResp, OpDelegAck).
	ProtoV5 uint32 = 5
	// ProtoLatest is the highest version this build speaks.
	ProtoLatest = ProtoV5
)

// TraceCtx is the propagated trace context: the trace identity plus the
// SpanID of the client span the server-side handler span should hang under.
// It rides as a trailing-optional group on request frames: the encoders
// only append it when TraceID is non-zero (tracing on), and the decoders
// treat absence as "untraced", so an untraced request carries no trace bytes.
type TraceCtx struct {
	TraceID uint64
	SpanID  uint64
}

func (m *TraceCtx) MarshalWire(b *wire.Buffer) {
	b.PutU64(m.TraceID)
	b.PutU64(m.SpanID)
}

func (m *TraceCtx) UnmarshalWire(r *wire.Reader) error {
	m.TraceID = r.U64()
	m.SpanID = r.U64()
	return r.Err()
}

// DelegCtx identifies the delegation owner behind a request: the client
// name the MDS grants to and recalls from, and the highest recall sequence
// number that client has processed — every request echoes it, so a recall is
// acknowledged by the holder's next request even if its OpDelegAck is lost.
// Like TraceCtx it rides as a trailing-optional group: encoders append it only
// when Owner is set (the client's hello to that shard succeeded), decoders
// read absence as "anonymous" — never granted, and foreign to every holder.
type DelegCtx struct {
	Owner string
	Ack   uint64
}

func (m *DelegCtx) MarshalWire(b *wire.Buffer) {
	b.PutString(m.Owner)
	b.PutU64(m.Ack)
}

func (m *DelegCtx) UnmarshalWire(r *wire.Reader) error {
	m.Owner = r.String()
	m.Ack = r.U64()
	return r.Err()
}

// PingReq is an empty liveness probe.
type PingReq struct{}

// MarshalWire implements wire.Marshaler.
func (*PingReq) MarshalWire(*wire.Buffer) {}

// UnmarshalWire implements wire.Unmarshaler.
func (*PingReq) UnmarshalWire(*wire.Reader) error { return nil }

// LookupReq resolves Name under Parent.
type LookupReq struct {
	Parent meta.FileID
	Name   string
	Deleg  DelegCtx // trailing-optional delegation owner
}

func (m *LookupReq) MarshalWire(b *wire.Buffer) {
	b.PutU64(uint64(m.Parent))
	b.PutString(m.Name)
	if m.Deleg.Owner != "" {
		m.Deleg.MarshalWire(b)
	}
}

func (m *LookupReq) UnmarshalWire(r *wire.Reader) error {
	m.Parent = meta.FileID(r.U64())
	m.Name = r.String()
	m.Deleg = DelegCtx{}
	if r.Err() == nil && r.Remaining() > 0 {
		m.Deleg.UnmarshalWire(r)
	}
	return r.Err()
}

// AttrResp carries inode attributes and the delegation traffic that rides on
// every attribute-bearing reply: whether the requesting owner now holds this
// inode's delegation, and every recall the MDS has issued to that owner and
// not yet seen acknowledged.
type AttrResp struct {
	ID    meta.FileID
	Type  meta.FileType
	Size  int64
	MTime time.Time

	// Granted reports that the request's owner holds the exclusive
	// delegation on ID from this reply on.
	Granted bool
	// RecallSeq is the sequence number of the newest recall the MDS has
	// issued to the owner; the owner echoes it (DelegCtx.Ack) once it has
	// dropped everything Recalls names.
	RecallSeq uint64
	// Recalls lists the inodes whose delegation the owner must drop: every
	// recall newer than the Ack the request carried. RecallAll stands for
	// "everything you hold on this shard, and your dentry cache".
	Recalls []meta.FileID
}

// RecallAll is the Recalls entry that revokes every delegation an owner holds
// on the replying shard (a directory was renamed or removed under it).
const RecallAll = meta.RecallAll

// maxRecalls bounds a decoded recall list; the MDS collapses a longer backlog
// into RecallAll long before.
const maxRecalls = 1 << 16

func (m *AttrResp) MarshalWire(b *wire.Buffer) {
	b.PutU64(uint64(m.ID))
	b.PutU8(uint8(m.Type))
	b.PutI64(m.Size)
	b.PutTime(m.MTime)
	// The delegation group is sent only when it says something: to a peer
	// that never named an owner all three fields are zero and stay off the
	// wire.
	if m.Granted || m.RecallSeq != 0 || len(m.Recalls) > 0 {
		b.PutBool(m.Granted)
		b.PutU64(m.RecallSeq)
		b.PutU32(uint32(len(m.Recalls)))
		for _, id := range m.Recalls {
			b.PutU64(uint64(id))
		}
	}
}

func (m *AttrResp) UnmarshalWire(r *wire.Reader) error {
	m.ID = meta.FileID(r.U64())
	m.Type = meta.FileType(r.U8())
	m.Size = r.I64()
	m.MTime = r.Time()
	m.Granted, m.RecallSeq, m.Recalls = false, 0, nil
	if r.Err() == nil && r.Remaining() > 0 {
		m.Granted = r.Bool()
		m.RecallSeq = r.U64()
		n := int(r.U32())
		if r.Err() != nil || n > maxRecalls {
			return r.Err()
		}
		for i := 0; i < n; i++ {
			m.Recalls = append(m.Recalls, meta.FileID(r.U64()))
		}
	}
	return r.Err()
}

// FromAttr converts a meta.Attr.
func FromAttr(a meta.Attr) AttrResp {
	return AttrResp{ID: a.ID, Type: a.Type, Size: a.Size, MTime: a.MTime}
}

// Attr converts back to a meta.Attr.
func (m *AttrResp) Attr() meta.Attr {
	return meta.Attr{ID: m.ID, Type: m.Type, Size: m.Size, MTime: m.MTime}
}

// CreateReq creates a file or directory.
type CreateReq struct {
	Parent meta.FileID
	Name   string
	Type   meta.FileType
	Deleg  DelegCtx // trailing-optional delegation owner
}

func (m *CreateReq) MarshalWire(b *wire.Buffer) {
	b.PutU64(uint64(m.Parent))
	b.PutString(m.Name)
	b.PutU8(uint8(m.Type))
	if m.Deleg.Owner != "" {
		m.Deleg.MarshalWire(b)
	}
}

func (m *CreateReq) UnmarshalWire(r *wire.Reader) error {
	m.Parent = meta.FileID(r.U64())
	m.Name = r.String()
	m.Type = meta.FileType(r.U8())
	m.Deleg = DelegCtx{}
	if r.Err() == nil && r.Remaining() > 0 {
		m.Deleg.UnmarshalWire(r)
	}
	return r.Err()
}

// GetAttrReq fetches attributes by inode.
type GetAttrReq struct {
	ID    meta.FileID
	Deleg DelegCtx // trailing-optional delegation owner
}

func (m *GetAttrReq) MarshalWire(b *wire.Buffer) {
	b.PutU64(uint64(m.ID))
	if m.Deleg.Owner != "" {
		m.Deleg.MarshalWire(b)
	}
}

func (m *GetAttrReq) UnmarshalWire(r *wire.Reader) error {
	m.ID = meta.FileID(r.U64())
	m.Deleg = DelegCtx{}
	if r.Err() == nil && r.Remaining() > 0 {
		m.Deleg.UnmarshalWire(r)
	}
	return r.Err()
}

// ReadDirReq lists a directory.
type ReadDirReq struct{ ID meta.FileID }

func (m *ReadDirReq) MarshalWire(b *wire.Buffer) { b.PutU64(uint64(m.ID)) }

func (m *ReadDirReq) UnmarshalWire(r *wire.Reader) error {
	m.ID = meta.FileID(r.U64())
	return r.Err()
}

// ReadDirResp carries directory entries.
type ReadDirResp struct{ Entries []meta.DirEnt }

func (m *ReadDirResp) MarshalWire(b *wire.Buffer) {
	b.PutU32(uint32(len(m.Entries)))
	for _, e := range m.Entries {
		b.PutString(e.Name)
		b.PutU64(uint64(e.ID))
		b.PutU8(uint8(e.Type))
		b.PutI64(e.Size)
	}
}

func (m *ReadDirResp) UnmarshalWire(r *wire.Reader) error {
	n := int(r.U32())
	if r.Err() != nil || n > 1<<24 {
		return r.Err()
	}
	m.Entries = make([]meta.DirEnt, 0, n)
	for i := 0; i < n; i++ {
		m.Entries = append(m.Entries, meta.DirEnt{
			Name: r.String(),
			ID:   meta.FileID(r.U64()),
			Type: meta.FileType(r.U8()),
			Size: r.I64(),
		})
	}
	return r.Err()
}

// RemoveReq unlinks Name under Parent.
type RemoveReq struct {
	Parent meta.FileID
	Name   string
	Deleg  DelegCtx // trailing-optional delegation owner
}

func (m *RemoveReq) MarshalWire(b *wire.Buffer) {
	b.PutU64(uint64(m.Parent))
	b.PutString(m.Name)
	if m.Deleg.Owner != "" {
		m.Deleg.MarshalWire(b)
	}
}

func (m *RemoveReq) UnmarshalWire(r *wire.Reader) error {
	m.Parent = meta.FileID(r.U64())
	m.Name = r.String()
	m.Deleg = DelegCtx{}
	if r.Err() == nil && r.Remaining() > 0 {
		m.Deleg.UnmarshalWire(r)
	}
	return r.Err()
}

// RenameReq moves a directory entry.
type RenameReq struct {
	SrcParent meta.FileID
	SrcName   string
	DstParent meta.FileID
	DstName   string
	Deleg     DelegCtx // trailing-optional delegation owner
}

func (m *RenameReq) MarshalWire(b *wire.Buffer) {
	b.PutU64(uint64(m.SrcParent))
	b.PutString(m.SrcName)
	b.PutU64(uint64(m.DstParent))
	b.PutString(m.DstName)
	if m.Deleg.Owner != "" {
		m.Deleg.MarshalWire(b)
	}
}

func (m *RenameReq) UnmarshalWire(r *wire.Reader) error {
	m.SrcParent = meta.FileID(r.U64())
	m.SrcName = r.String()
	m.DstParent = meta.FileID(r.U64())
	m.DstName = r.String()
	m.Deleg = DelegCtx{}
	if r.Err() == nil && r.Remaining() > 0 {
		m.Deleg.UnmarshalWire(r)
	}
	return r.Err()
}

// LayoutGetReq fetches (and for writes, allocates) the extent layout of a
// file range.
type LayoutGetReq struct {
	Owner string
	File  meta.FileID
	Off   int64
	Len   int64
	// Flags asks for a write allocation (meta.LayoutWrite, bit 0). Bit 1
	// once asked for other clients' uncommitted extents; it is reserved and
	// never reused, and the MDS ignores it like every other bit.
	Flags meta.LayoutFlags
}

func (m *LayoutGetReq) MarshalWire(b *wire.Buffer) {
	b.PutString(m.Owner)
	b.PutU64(uint64(m.File))
	b.PutI64(m.Off)
	b.PutI64(m.Len)
	b.PutU8(uint8(m.Flags))
}

func (m *LayoutGetReq) UnmarshalWire(r *wire.Reader) error {
	m.Owner = r.String()
	m.File = meta.FileID(r.U64())
	m.Off = r.I64()
	m.Len = r.I64()
	m.Flags = meta.LayoutFlags(r.U8())
	return r.Err()
}

// LayoutResp carries the extents covering the requested range.
type LayoutResp struct {
	File    meta.FileID
	Size    int64
	Extents []meta.Extent
}

func (m *LayoutResp) MarshalWire(b *wire.Buffer) {
	b.PutU64(uint64(m.File))
	b.PutI64(m.Size)
	meta.PutExtents(b, m.Extents)
}

func (m *LayoutResp) UnmarshalWire(r *wire.Reader) error {
	m.File = meta.FileID(r.U64())
	m.Size = r.I64()
	m.Extents = meta.GetExtents(r)
	return r.Err()
}

// CommitReq commits extents of one file: the metadata half of an ordered
// write. Several CommitReqs are what delayed commit packs into one compound
// RPC.
type CommitReq struct {
	Owner string
	File  meta.FileID
	Size  int64
	MTime time.Time
	// CommitID, when non-zero, identifies this commit uniquely within the
	// owner's session. The MDS remembers recently applied IDs and answers a
	// retransmission from that memory instead of re-applying, making commit
	// retry after a lost reply idempotent.
	CommitID uint64
	Extents  []meta.Extent
	// Trace links the MDS-side commit spans to the client span that
	// issued this request; the zero value means untraced.
	Trace TraceCtx
}

func (m *CommitReq) MarshalWire(b *wire.Buffer) {
	b.PutString(m.Owner)
	b.PutU64(uint64(m.File))
	b.PutI64(m.Size)
	b.PutTime(m.MTime)
	b.PutU64(m.CommitID)
	meta.PutExtents(b, m.Extents)
	if m.Trace.TraceID != 0 {
		m.Trace.MarshalWire(b)
	}
}

func (m *CommitReq) UnmarshalWire(r *wire.Reader) error {
	m.Owner = r.String()
	m.File = meta.FileID(r.U64())
	m.Size = r.I64()
	m.MTime = r.Time()
	m.CommitID = r.U64()
	m.Extents = meta.GetExtents(r)
	m.Trace = TraceCtx{}
	if r.Err() == nil && r.Remaining() > 0 {
		m.Trace.UnmarshalWire(r)
	}
	return r.Err()
}

// CommitResp acknowledges a commit.
type CommitResp struct{ Size int64 }

func (m *CommitResp) MarshalWire(b *wire.Buffer) { b.PutI64(m.Size) }

func (m *CommitResp) UnmarshalWire(r *wire.Reader) error {
	m.Size = r.I64()
	return r.Err()
}

// DelegateReq asks for a contiguous chunk of physical space.
type DelegateReq struct {
	Owner string
	Size  int64
}

func (m *DelegateReq) MarshalWire(b *wire.Buffer) {
	b.PutString(m.Owner)
	b.PutI64(m.Size)
}

func (m *DelegateReq) UnmarshalWire(r *wire.Reader) error {
	m.Owner = r.String()
	m.Size = r.I64()
	return r.Err()
}

// SpanMsg is a physical span on the wire.
type SpanMsg struct {
	Dev uint32
	Off int64
	Len int64
}

func (m *SpanMsg) MarshalWire(b *wire.Buffer) {
	b.PutU32(m.Dev)
	b.PutI64(m.Off)
	b.PutI64(m.Len)
}

func (m *SpanMsg) UnmarshalWire(r *wire.Reader) error {
	m.Dev = r.U32()
	m.Off = r.I64()
	m.Len = r.I64()
	return r.Err()
}

// DelegReturnReq gives a delegation back.
type DelegReturnReq struct {
	Owner string
	Span  SpanMsg
}

func (m *DelegReturnReq) MarshalWire(b *wire.Buffer) {
	b.PutString(m.Owner)
	m.Span.MarshalWire(b)
}

func (m *DelegReturnReq) UnmarshalWire(r *wire.Reader) error {
	m.Owner = r.String()
	return m.Span.UnmarshalWire(r)
}

// HelloReq (re)introduces a client session to the MDS. Clients send it on
// connect and after every reconnect; comparing the returned incarnation with
// the last one seen tells the client whether the MDS restarted (and thus
// recovered, revoking its delegations and uncommitted allocations).
// ProtoVersion is the highest protocol version the client speaks.
type HelloReq struct {
	Owner        string
	ProtoVersion uint32
}

func (m *HelloReq) MarshalWire(b *wire.Buffer) {
	b.PutString(m.Owner)
	b.PutU32(m.ProtoVersion)
}

func (m *HelloReq) UnmarshalWire(r *wire.Reader) error {
	m.Owner = r.String()
	m.ProtoVersion = r.U32()
	return r.Err()
}

// HelloResp carries the MDS incarnation number, bumped on every restart, the
// negotiated protocol version, and which shard of the namespace this server
// carries (ShardIndex of ShardCount); a client dials every shard and routes
// each inode by meta.ShardOf.
type HelloResp struct {
	Incarnation  uint64
	ProtoVersion uint32
	ShardIndex   uint32
	ShardCount   uint32
}

func (m *HelloResp) MarshalWire(b *wire.Buffer) {
	b.PutU64(m.Incarnation)
	b.PutU32(m.ProtoVersion)
	b.PutU32(m.ShardIndex)
	b.PutU32(m.ShardCount)
}

func (m *HelloResp) UnmarshalWire(r *wire.Reader) error {
	m.Incarnation = r.U64()
	m.ProtoVersion = r.U32()
	m.ShardIndex = r.U32()
	m.ShardCount = r.U32()
	return r.Err()
}

// CreateDetachedReq mints an inode on its home shard without a local
// dirent — step one of a cross-shard create. The home shard publishes an
// NSCreate intent; the inode graduates when the client links it on the
// parent's shard and sends OpNSCommit here. Replies with AttrResp.
type CreateDetachedReq struct {
	Parent meta.FileID
	Name   string
	Type   meta.FileType
	Trace  TraceCtx // trailing-optional trace context
}

func (m *CreateDetachedReq) MarshalWire(b *wire.Buffer) {
	b.PutU64(uint64(m.Parent))
	b.PutString(m.Name)
	b.PutU8(uint8(m.Type))
	if m.Trace.TraceID != 0 {
		m.Trace.MarshalWire(b)
	}
}

func (m *CreateDetachedReq) UnmarshalWire(r *wire.Reader) error {
	m.Parent = meta.FileID(r.U64())
	m.Name = r.String()
	m.Type = meta.FileType(r.U8())
	m.Trace = TraceCtx{}
	if r.Err() == nil && r.Remaining() > 0 {
		m.Trace.UnmarshalWire(r)
	}
	return r.Err()
}

// NSPrepareReq publishes a namespace intent on an inode's home shard:
// the prepare phase of cross-shard remove and rename. Kind selects the
// protocol; DstParent/DstName only carry meaning for rename-dst intents.
// Re-sending an identical prepare is idempotent.
type NSPrepareReq struct {
	File      meta.FileID
	Kind      meta.NSIntentKind
	Type      meta.FileType
	Parent    meta.FileID
	Name      string
	DstParent meta.FileID
	DstName   string
	Trace     TraceCtx // trailing-optional trace context
	// Deleg nests inside the trace group, so the frame stays a strict
	// prefix chain: a delegation owner without a trace sends a zero TraceCtx,
	// which reads as "untraced".
	Deleg DelegCtx
}

func (m *NSPrepareReq) MarshalWire(b *wire.Buffer) {
	b.PutU64(uint64(m.File))
	b.PutU8(uint8(m.Kind))
	b.PutU8(uint8(m.Type))
	b.PutU64(uint64(m.Parent))
	b.PutString(m.Name)
	b.PutU64(uint64(m.DstParent))
	b.PutString(m.DstName)
	if m.Trace.TraceID != 0 || m.Deleg.Owner != "" {
		m.Trace.MarshalWire(b)
		if m.Deleg.Owner != "" {
			m.Deleg.MarshalWire(b)
		}
	}
}

func (m *NSPrepareReq) UnmarshalWire(r *wire.Reader) error {
	m.File = meta.FileID(r.U64())
	m.Kind = meta.NSIntentKind(r.U8())
	m.Type = meta.FileType(r.U8())
	m.Parent = meta.FileID(r.U64())
	m.Name = r.String()
	m.DstParent = meta.FileID(r.U64())
	m.DstName = r.String()
	m.Trace, m.Deleg = TraceCtx{}, DelegCtx{}
	if r.Err() == nil && r.Remaining() > 0 {
		m.Trace.UnmarshalWire(r)
		if r.Err() == nil && r.Remaining() > 0 {
			m.Deleg.UnmarshalWire(r)
		}
	}
	return r.Err()
}

// NSCommitReq graduates the live intent of the given kind on File's
// home shard. A commit for an intent that no longer exists is a no-op, so
// the client may retry freely after a lost reply.
type NSCommitReq struct {
	File  meta.FileID
	Kind  meta.NSIntentKind
	Trace TraceCtx // trailing-optional trace context
}

func (m *NSCommitReq) MarshalWire(b *wire.Buffer) {
	b.PutU64(uint64(m.File))
	b.PutU8(uint8(m.Kind))
	if m.Trace.TraceID != 0 {
		m.Trace.MarshalWire(b)
	}
}

func (m *NSCommitReq) UnmarshalWire(r *wire.Reader) error {
	m.File = meta.FileID(r.U64())
	m.Kind = meta.NSIntentKind(r.U8())
	m.Trace = TraceCtx{}
	if r.Err() == nil && r.Remaining() > 0 {
		m.Trace.UnmarshalWire(r)
	}
	return r.Err()
}

// NSAbortReq rolls back the live intent of the given kind on File's
// home shard. Like NSCommitReq, absent intents make it a no-op.
type NSAbortReq struct {
	File  meta.FileID
	Kind  meta.NSIntentKind
	Trace TraceCtx // trailing-optional trace context
}

func (m *NSAbortReq) MarshalWire(b *wire.Buffer) {
	b.PutU64(uint64(m.File))
	b.PutU8(uint8(m.Kind))
	if m.Trace.TraceID != 0 {
		m.Trace.MarshalWire(b)
	}
}

func (m *NSAbortReq) UnmarshalWire(r *wire.Reader) error {
	m.File = meta.FileID(r.U64())
	m.Kind = meta.NSIntentKind(r.U8())
	m.Trace = TraceCtx{}
	if r.Err() == nil && r.Remaining() > 0 {
		m.Trace.UnmarshalWire(r)
	}
	return r.Err()
}

// LinkRemoteReq inserts the dirent for a remote-homed child on the
// parent's shard — the commit point of a cross-shard create or rename.
// Linking the same (name, child) again is idempotent.
type LinkRemoteReq struct {
	Parent meta.FileID
	Name   string
	Child  meta.FileID
	Type   meta.FileType
	Trace  TraceCtx // trailing-optional trace context
}

func (m *LinkRemoteReq) MarshalWire(b *wire.Buffer) {
	b.PutU64(uint64(m.Parent))
	b.PutString(m.Name)
	b.PutU64(uint64(m.Child))
	b.PutU8(uint8(m.Type))
	if m.Trace.TraceID != 0 {
		m.Trace.MarshalWire(b)
	}
}

func (m *LinkRemoteReq) UnmarshalWire(r *wire.Reader) error {
	m.Parent = meta.FileID(r.U64())
	m.Name = r.String()
	m.Child = meta.FileID(r.U64())
	m.Type = meta.FileType(r.U8())
	m.Trace = TraceCtx{}
	if r.Err() == nil && r.Remaining() > 0 {
		m.Trace.UnmarshalWire(r)
	}
	return r.Err()
}

// UnlinkRemoteReq deletes the dirent for a remote-homed child on the
// parent's shard — the commit point of a cross-shard remove. Unlinking an
// entry that is already gone (or re-pointed at a different inode) is
// idempotent.
type UnlinkRemoteReq struct {
	Parent meta.FileID
	Name   string
	Child  meta.FileID
	Trace  TraceCtx // trailing-optional trace context
}

func (m *UnlinkRemoteReq) MarshalWire(b *wire.Buffer) {
	b.PutU64(uint64(m.Parent))
	b.PutString(m.Name)
	b.PutU64(uint64(m.Child))
	if m.Trace.TraceID != 0 {
		m.Trace.MarshalWire(b)
	}
}

func (m *UnlinkRemoteReq) UnmarshalWire(r *wire.Reader) error {
	m.Parent = meta.FileID(r.U64())
	m.Name = r.String()
	m.Child = meta.FileID(r.U64())
	m.Trace = TraceCtx{}
	if r.Err() == nil && r.Remaining() > 0 {
		m.Trace.UnmarshalWire(r)
	}
	return r.Err()
}
