package meta

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"sync"
	"time"

	"redbud/internal/blockdev"
	"redbud/internal/wire"
)

// RecType enumerates journal record types.
type RecType uint8

// Journal record types.
const (
	RecCreate RecType = iota + 1
	RecRemove
	RecAlloc       // space allocated at layout-get (uncommitted)
	RecCommit      // extents committed; carries final size and mtime
	RecDelegate    // chunk delegated to a client
	RecDelegReturn // delegation returned; unused space freed
	RecClientGone  // client lease revoked; its orphan space freed
	RecRename      // directory entry moved
	// Cross-shard namespace protocol (see shard.go). RecNSIntent publishes a
	// namespace intent (and, for NSCreate, materializes the detached inode);
	// RecNSCommit / RecNSAbort resolve it. RecLinkRemote / RecUnlinkRemote
	// move a directory entry for an inode homed on another shard.
	RecNSIntent
	RecNSCommit
	RecNSAbort
	RecLinkRemote
	RecUnlinkRemote
)

// Record is one journal entry. A single struct covers all record types; the
// Type field says which fields are meaningful.
type Record struct {
	Type    RecType
	File    FileID
	Parent  FileID
	Name    string
	FType   FileType
	Owner   string
	Size    int64
	MTime   time.Time
	Extents []Extent
	// Span fields (delegation records).
	SpanDev uint32
	SpanOff int64
	SpanLen int64
	// Rename destination (RecRename), also the destination entry of an
	// NSRenameDst intent.
	DstParent FileID
	DstName   string
	// NSKind is the namespace-intent kind (RecNSIntent/RecNSCommit/
	// RecNSAbort records).
	NSKind NSIntentKind
}

// MarshalWire encodes the record payload.
func (rec *Record) MarshalWire(b *wire.Buffer) {
	b.PutU8(uint8(rec.Type))
	b.PutU64(uint64(rec.File))
	b.PutU64(uint64(rec.Parent))
	b.PutString(rec.Name)
	b.PutU8(uint8(rec.FType))
	b.PutString(rec.Owner)
	b.PutI64(rec.Size)
	b.PutTime(rec.MTime)
	PutExtents(b, rec.Extents)
	b.PutU32(rec.SpanDev)
	b.PutI64(rec.SpanOff)
	b.PutI64(rec.SpanLen)
	b.PutU64(uint64(rec.DstParent))
	b.PutString(rec.DstName)
	// NSKind is a trailing optional (see the PR 8 wire-evolution rules):
	// only the cross-shard NS record types carry it, so records written by a
	// pre-sharding build — which lack the byte entirely — decode unchanged,
	// and an upgraded MDS replays its old journal instead of treating every
	// record as a torn tail.
	if rec.NSKind != 0 {
		b.PutU8(uint8(rec.NSKind))
	}
}

// UnmarshalWire decodes the record payload.
func (rec *Record) UnmarshalWire(r *wire.Reader) error {
	rec.Type = RecType(r.U8())
	rec.File = FileID(r.U64())
	rec.Parent = FileID(r.U64())
	rec.Name = r.String()
	rec.FType = FileType(r.U8())
	rec.Owner = r.String()
	rec.Size = r.I64()
	rec.MTime = r.Time()
	rec.Extents = GetExtents(r)
	rec.SpanDev = r.U32()
	rec.SpanOff = r.I64()
	rec.SpanLen = r.I64()
	rec.DstParent = FileID(r.U64())
	rec.DstName = r.String()
	if r.Err() == nil && r.Remaining() > 0 {
		rec.NSKind = NSIntentKind(r.U8())
	}
	return r.Err()
}

// Journal errors.
var (
	ErrJournalFull    = errors.New("meta: journal full")
	ErrJournalCorrupt = errors.New("meta: journal corrupt")
	// ErrJournalFailed marks a record the journal refused because one of
	// its device writes failed: the log has a hole, and nothing appended
	// after it can be made durable until a restart replays the prefix.
	ErrJournalFailed = errors.New("meta: journal failed")
)

const (
	journalMagic  = 0x52425201 // "RBR\x01"
	recHeaderSize = 16         // magic u32 + gen u32 + len u32 + crc u32
)

// Journal is a write-ahead log stored in a region of the metadata device,
// with group commit: concurrent Append calls coalesce into a single device
// write. The first appender to find no flush in progress becomes the batch
// leader and drains the accumulation buffer to the device; records appended
// while a flush is in flight pile into the next batch and ride the next
// write. Batches are flushed strictly in log order by a single flusher at a
// time, and every waiter is signalled only after its batch is durable, so the
// write-ahead rule is untouched — the log can never contain an acknowledged
// record with a hole before it. That is also why the journal is fail-stop: once
// a batch's device write fails, that batch, every batch behind it and every
// later Append fail with ErrJournalFailed, because replay would end at the
// hole and lose them.
type Journal struct {
	dev   *blockdev.Device
	start int64
	size  int64
	// gen is the log epoch: every record is stamped with it, and replay
	// stops at the first record of a different epoch. Checkpointing (see
	// logset.go) bumps the generation when it switches regions, so stale
	// records left in a reused region can never be replayed.
	gen uint32

	mu       sync.Mutex
	tail     int64          // relative offset of the next record
	flushOff int64          // relative offset of the first unflushed byte
	pending  []byte         // framed records awaiting the next device write
	waiters  []chan<- error // one per pending record, in log order
	flushing bool           // a leader is draining batches
	failed   error          // the failed device write that stopped the journal

	appends int64 // records appended (stats)
	batches int64 // device writes issued (stats)
}

// NewJournal manages [start, start+size) of dev as a generation-0 journal.
// The region is assumed zeroed (a fresh device reads zeros, which terminates
// replay).
func NewJournal(dev *blockdev.Device, start, size int64) *Journal {
	return NewJournalGen(dev, start, size, 0)
}

// NewJournalGen is NewJournal with an explicit log epoch (used by LogSet).
func NewJournalGen(dev *blockdev.Device, start, size int64, gen uint32) *Journal {
	return &Journal{dev: dev, start: start, size: size, gen: gen}
}

// Generation returns the journal's log epoch.
func (j *Journal) Generation() uint32 { return j.gen }

// Tail returns the relative offset one past the last appended record.
func (j *Journal) Tail() int64 {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.tail
}

// Append encodes rec, reserves journal space, and schedules the record for
// the next group-commit batch. The returned channel yields once the record is
// durable. Callers must wait on it before acknowledging the operation to a
// client (write-ahead rule). The journal-slot reservation order (the order
// concurrent Appends pass through the internal lock) is the replay order;
// store methods reserve their slot while holding the lock that ordered the
// mutation, so replay order equals apply order.
//
//redbud:hotpath
func (j *Journal) Append(rec *Record) <-chan error {
	ch := make(chan error, 1)
	pb := wire.GetBuffer()
	rec.MarshalWire(pb)
	payload := pb.Bytes()
	crc := crc32.ChecksumIEEE(payload)
	need := int64(recHeaderSize + len(payload))

	j.mu.Lock()
	if j.failed != nil {
		err := j.failed
		j.mu.Unlock()
		wire.PutBuffer(pb)
		ch <- err
		return ch
	}
	if j.tail+need > j.size {
		used := j.tail
		j.mu.Unlock()
		wire.PutBuffer(pb)
		//lint:allow hotpath — journal-full error path, never taken at steady state
		ch <- fmt.Errorf("%w: %d of %d bytes used", ErrJournalFull, used, j.size)
		return ch
	}
	j.pending = binary.LittleEndian.AppendUint32(j.pending, journalMagic)
	j.pending = binary.LittleEndian.AppendUint32(j.pending, j.gen)
	j.pending = binary.LittleEndian.AppendUint32(j.pending, uint32(len(payload)))
	j.pending = binary.LittleEndian.AppendUint32(j.pending, crc)
	j.pending = append(j.pending, payload...)
	j.waiters = append(j.waiters, ch)
	j.tail += need
	j.appends++
	lead := !j.flushing
	if lead {
		j.flushing = true
	}
	j.mu.Unlock()
	wire.PutBuffer(pb)

	if lead {
		go j.flushBatches()
	}
	return ch
}

// flushBatches is the group-commit leader loop: it repeatedly swaps out the
// accumulation buffer, issues one device write for the whole batch, and
// signals the batch's waiters once it is durable. Records appended while a
// write is in flight accumulate into the next batch, so under concurrency the
// per-request device overhead is paid once per batch, not once per record.
// The device keeps the batch buffer it is handed, so every batch gets a new
// one.
//
//redbud:hotpath
func (j *Journal) flushBatches() {
	for {
		j.mu.Lock()
		if len(j.pending) == 0 {
			j.flushing = false
			j.mu.Unlock()
			return
		}
		buf := j.pending
		waiters := j.waiters
		off := j.flushOff
		j.pending = make([]byte, 0, len(buf)) // the next batch, sized like this one
		j.waiters = nil
		j.flushOff = off + int64(len(buf))
		j.batches++
		j.mu.Unlock()

		err := j.dev.Write(j.start+off, buf)
		if err != nil {
			//lint:allow hotpath — failed-write path, taken once before the journal stops
			err = fmt.Errorf("%w: write at %d: %w", ErrJournalFailed, off, err)
			j.mu.Lock()
			j.failed = err
			waiters = append(waiters, j.waiters...)
			j.pending, j.waiters = nil, nil
			j.flushing = false
			j.mu.Unlock()
		}
		for _, ch := range waiters {
			ch <- err
		}
		if err != nil {
			return
		}
	}
}

// Err returns the error that stopped the journal, or nil while it runs.
func (j *Journal) Err() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.failed
}

// GroupCommitStats returns the number of records appended and the number of
// device writes issued for them; appends/batches is the amortization factor.
func (j *Journal) GroupCommitStats() (appends, batches int64) {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.appends, j.batches
}

// Replay reads the journal from the device, invoking fn for every valid
// record in order. Replay stops cleanly at the first invalid header or
// record — an unwritten (zero) header, a foreign magic, an overrunning
// length, a checksum mismatch, or an undecodable payload. That is the
// standard write-ahead-log torn-tail rule: a crash can leave at most one
// partially written record, and it must terminate the log rather than fail
// recovery (the record's operation was never acknowledged, because Append's
// caller waits for durability before replying). Torn reports whether replay
// ended at such a damaged record rather than a clean end-of-log.
//
// On return the journal's tail is positioned after the last valid record, so
// subsequent appends overwrite the torn one and continue the log.
func (j *Journal) Replay(fn func(*Record) error) (torn bool, err error) {
	off := int64(0)
	defer func() {
		if err == nil {
			j.mu.Lock()
			j.tail = off
			j.flushOff = off
			j.mu.Unlock()
		}
	}()
	for {
		if off+recHeaderSize > j.size {
			return false, nil
		}
		hdr, err := j.dev.Read(j.start+off, recHeaderSize)
		if err != nil {
			return false, err
		}
		r := wire.NewReader(hdr)
		magic, gen, plen, crc := r.U32(), r.U32(), r.U32(), r.U32()
		if magic == 0 {
			return false, nil // clean end of log
		}
		if magic != journalMagic {
			return true, nil
		}
		if gen != j.gen {
			// A record from an older epoch: this region was reused by
			// a checkpoint and the current log ends here.
			return false, nil
		}
		if int64(plen) > j.size-off-recHeaderSize {
			return true, nil
		}
		payload, err := j.dev.Read(j.start+off+recHeaderSize, int64(plen))
		if err != nil {
			return false, err
		}
		if crc32.ChecksumIEEE(payload) != crc {
			return true, nil
		}
		var rec Record
		if err := wire.Decode(payload, &rec); err != nil {
			return true, nil
		}
		if err := fn(&rec); err != nil {
			return false, err
		}
		off += recHeaderSize + int64(plen)
	}
}
