package meta

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"redbud/internal/alloc"
	"redbud/internal/clock"
	"redbud/internal/fsapi"
	"redbud/internal/obs"
	"redbud/internal/stats"
)

// Store errors. The namespace ones are failures of an fsapi kind — the one
// MemFS reports for the same failure — and unwrap to its sentinel, so the MDS
// sends their identity to the client with the refusal.
var (
	ErrNotFound     = &kindError{"meta: not found", fsapi.ErrNotExist}
	ErrExists       = &kindError{"meta: already exists", fsapi.ErrExist}
	ErrNotDir       = &kindError{"meta: not a directory", fsapi.ErrInvalid}
	ErrIsDir        = &kindError{"meta: is a directory", fsapi.ErrIsDir}
	ErrNotEmpty     = &kindError{"meta: directory not empty", fsapi.ErrNotEmpty}
	ErrInvalidName  = &kindError{"meta: invalid name", fsapi.ErrInvalid}
	ErrLoop         = &kindError{"meta: directory would become its own ancestor", fsapi.ErrInvalid}
	ErrBadCommit    = errors.New("meta: commit references unallocated space")
	ErrNoDelegation = errors.New("meta: no such delegation")
	ErrNoJournal    = errors.New("meta: recovery requires a journal")
	ErrLogTooLarge  = errors.New("meta: log set does not fit on device")
	// ErrIntentConflict reports a write-intent publish that would duplicate
	// a live intent held by a different owner — allocator accounting
	// corruption, since no two clients may ever be handed the same space.
	ErrIntentConflict = errors.New("meta: conflicting write intent")
	// ErrNSConflict reports a namespace operation blocked by a live
	// cross-shard namespace intent (see shard.go): the inode or name is in
	// the middle of a two-phase create/remove/rename and the operation must
	// wait for it to resolve.
	ErrNSConflict = errors.New("meta: conflicting namespace intent")
	// ErrWrongShard reports an operation addressed to a shard that is not
	// the inode's home — a client routed by a stale shard map, or a
	// cross-shard operation sent down the single-shard path.
	ErrWrongShard = errors.New("meta: inode homed on another shard")
)

// kindError is a sentinel of this package that is also a failure of an
// fsapi kind: errors.Is matches it and the fsapi sentinel it unwraps to.
type kindError struct {
	msg  string
	kind error
}

func (e *kindError) Error() string { return e.msg }
func (e *kindError) Unwrap() error { return e.kind }

// Config configures a Store.
type Config struct {
	AGs *alloc.AGSet
	// Journal persists mutations; nil runs the store volatile (tests).
	Journal *Journal
	Clock   clock.Clock
	// Tracer, if non-nil, records mds.lockwait / mds.apply / mds.journal
	// spans for every traced commit on track "mds/store" ("mds<i>/store"
	// when sharded, so each shard exports as its own trace process). Spans
	// are recorded only after all store locks are released.
	Tracer *obs.Tracer
	// Shard / ShardCount place this store in a sharded namespace (see
	// shard.go): the store homes only the inodes ShardOf maps to Shard,
	// mints only ids it owns, and seeds the root directory only when it owns
	// RootID. ShardCount <= 1 selects the classic single-store behaviour.
	Shard      int
	ShardCount int
}

// delegation is a chunk of physical space granted to one client, which
// carves small-file extents from it locally.
type delegation struct {
	owner string
	span  alloc.Span
	// mu guards used against concurrent commits, which run under the
	// shared namespace lock. Holders of the exclusive namespace lock may
	// access used directly: every mutator holds at least the shared lock,
	// so exclusive acquisition quiesces them all.
	mu sync.Mutex
	// used records committed sub-ranges (relative to the device, sorted,
	// coalesced). The complement within span is orphan space on GC.
	used []ival
}

type ival struct{ off, end int64 }

// removeIval deletes [off, end) from a sorted coalesced list, splitting
// intervals as needed.
func removeIval(list []ival, off, end int64) []ival {
	if end <= off {
		return list
	}
	out := list[:0:0]
	for _, u := range list {
		if u.end <= off || u.off >= end {
			out = append(out, u)
			continue
		}
		if u.off < off {
			out = append(out, ival{u.off, off})
		}
		if u.end > end {
			out = append(out, ival{end, u.end})
		}
	}
	return out
}

// addIval inserts [off, end) into a sorted coalesced list.
func addIval(list []ival, off, end int64) []ival {
	i := sort.Search(len(list), func(i int) bool { return list[i].end >= off })
	j := i
	for j < len(list) && list[j].off <= end {
		if list[j].off < off {
			off = list[j].off
		}
		if list[j].end > end {
			end = list[j].end
		}
		j++
	}
	out := make([]ival, 0, len(list)-(j-i)+1)
	out = append(out, list[:i]...)
	out = append(out, ival{off, end})
	out = append(out, list[j:]...)
	return out
}

// gaps returns the sub-ranges of [off, end) not covered by used.
func gaps(off, end int64, used []ival) []ival {
	var out []ival
	cur := off
	for _, u := range used {
		if u.end <= cur {
			continue
		}
		if u.off >= end {
			break
		}
		if u.off > cur {
			out = append(out, ival{cur, u.off})
		}
		if u.end > cur {
			cur = u.end
		}
	}
	if cur < end {
		out = append(out, ival{cur, end})
	}
	return out
}

// inodeStripes is the size of the per-inode lock stripe array. FileIDs are
// assigned sequentially, so a burst of commits to recently created files
// lands on distinct stripes.
const inodeStripes = 64

// Store is the MDS metadata state machine. All public mutating methods are
// journaled; the journal slot is reserved while the in-memory mutation is
// applied under the lock that ordered it, so replay order equals apply order.
// Each mutation the MDS serves is split in two: Begin<Op> applies it and
// returns, with every store lock released, a durable function that blocks
// until the record is durable; the caller must not acknowledge the mutation
// before that returns nil (write-ahead rule: clients never observe an
// acknowledgement that a crash can roll back). Create, Remove, AllocLayout
// and Commit are the wait-inline forms, for callers with nothing else to do
// meanwhile.
//
// Concurrency model (lock order: namespace -> inode stripe -> intent table
// -> ns-intent table -> file-delegation table -> delegation -> journal
// reservation):
//
//   - ns guards the map structure (inodes, dirents, nextID, delegations) and
//     is the operation-ordering lock. Namespace mutations (Create, Remove,
//     Rename), delegation grant/return/revoke, and whole-store passes
//     (snapshot, checkpoint, replay, fsck) take it exclusively. Per-inode
//     operations — the commit hot path — take it shared, so commits to
//     different files never queue behind one another on it.
//   - stripes[id%inodeStripes] guards one inode's mutable content (extents,
//     size, mtime). It is only acquired while holding ns; because every
//     content mutator holds at least ns.RLock, an exclusive ns holder owns
//     all inode content and skips stripe locks entirely.
//   - intents.mu guards the write-intent table (uncommitted-extent
//     ownership). It may be taken under
//     a stripe lock (publish/graduate during alloc/commit) and is never
//     held across a blocking operation.
//   - nsIntents.mu guards the cross-shard namespace-intent table (see
//     shard.go); all its mutations run under the exclusive namespace lock.
//   - fdelegs.mu guards the file-delegation table (filedeleg.go). Grants and
//     conflict checks take it under the lock that orders their operation; a
//     mutation that has to wait for a recall releases every store lock first.
//   - delegation.mu guards the delegation's used list against concurrent
//     commits (see the field comment).
//
// Operations on the same inode serialize on its stripe and reserve their
// journal slots in that order; operations on different inodes commute, so
// their relative journal order is irrelevant to replay. Cross-inode ordering
// that does matter (create before first commit, every per-file record before
// its remove, delegate before commits into the chunk) is inherited from the
// namespace lock: the exclusive holder reserves its slot before releasing,
// and shared holders can only observe its effects afterwards.
type Store struct {
	cfg   Config
	clk   clock.Clock
	track string // span track: "mds/store", or "mds<i>/store" when sharded

	// Cross-shard namespace saga counters, exported for the SLO plane: every
	// intent publish, graduation, and rollback this shard executed.
	nsPrepares stats.Counter
	nsCommits  stats.Counter
	nsAborts   stats.Counter

	ns          sync.RWMutex
	stripes     [inodeStripes]sync.RWMutex
	inodes      map[FileID]*inode
	dirents     map[FileID]map[string]FileID
	nextID      FileID
	delegations map[string][]*delegation
	// fdelegs is the file-delegation holder table (filedeleg.go), the other
	// thing an owner can be granted and ClientGone takes back. Volatile: never
	// journaled, never in a snapshot.
	fdelegs *FileDelegs

	// intents indexes live write intents (uncommitted extents) by file and
	// owner; see intentTable for the lifecycle and its lock's place in the
	// hierarchy.
	intents *intentTable

	// Cross-shard state (see shard.go). remote maps children listed in a
	// local dirent whose inode is homed on another shard to their type;
	// linkedRemote marks local inodes whose dirent lives on another shard;
	// nsIntents holds the shard's live namespace intents. All guarded by ns.
	remote       map[FileID]FileType
	linkedRemote map[FileID]struct{}
	nsIntents    *nsIntentTable
	// linkDone / unlinkDone record the children whose cross-shard commit
	// point this shard has executed (LinkRemote insert / UnlinkRemote
	// delete). They make the commit-point RPCs exactly-once rather than
	// merely idempotent: after a concurrent rename moves the entry, a retry
	// must neither re-insert the dirent (forking a second reference) nor
	// report an unlink it never performed (freeing a live inode), so an
	// absent entry is answered from these sets — success when the commit
	// provably happened here, ErrNotFound otherwise. Inode ids are minted
	// once and never reused, so membership is permanent; the sets grow only
	// with completed cross-shard operations and persist through the
	// journaled RecLinkRemote/RecUnlinkRemote records and their snapshot
	// markers.
	linkDone   map[FileID]struct{}
	unlinkDone map[FileID]struct{}
}

// stripe returns the content lock of inode id.
func (s *Store) stripe(id FileID) *sync.RWMutex {
	return &s.stripes[uint64(id)%inodeStripes]
}

// NewStore returns a fresh store containing only the root directory (on the
// shard that owns RootID; other shards of a sharded namespace start empty).
func NewStore(cfg Config) *Store {
	if cfg.Clock == nil {
		cfg.Clock = clock.Real(1)
	}
	if cfg.ShardCount <= 1 {
		cfg.Shard, cfg.ShardCount = 0, 1
	}
	track := "mds/store"
	if cfg.ShardCount > 1 {
		track = fmt.Sprintf("mds%d/store", cfg.Shard)
	}
	s := &Store{
		cfg:          cfg,
		clk:          cfg.Clock,
		track:        track,
		inodes:       make(map[FileID]*inode),
		dirents:      make(map[FileID]map[string]FileID),
		nextID:       RootID + 1,
		delegations:  make(map[string][]*delegation),
		fdelegs:      newFileDelegs(cfg.Clock),
		intents:      newIntentTable(),
		remote:       make(map[FileID]FileType),
		linkedRemote: make(map[FileID]struct{}),
		nsIntents:    newNSIntentTable(),
		linkDone:     make(map[FileID]struct{}),
		unlinkDone:   make(map[FileID]struct{}),
	}
	if s.ownsID(RootID) {
		s.inodes[RootID] = &inode{id: RootID, typ: TypeDir, mtime: s.clk.Now(), nlink: 1}
		s.dirents[RootID] = make(map[string]FileID)
	}
	return s
}

// RegisterMetrics exposes the store's namespace size and journal
// group-commit counters in a metrics registry.
func (s *Store) RegisterMetrics(r *obs.Registry) {
	if r == nil {
		return
	}
	r.GaugeFunc("redbud_meta_files", "inodes (files + directories) in the namespace", nil,
		func() int64 {
			s.ns.RLock()
			n := int64(len(s.inodes))
			s.ns.RUnlock()
			return n
		})
	r.CounterFunc("redbud_meta_ns_prepares_total", "cross-shard namespace intents published", nil,
		s.nsPrepares.Load)
	r.CounterFunc("redbud_meta_ns_commits_total", "cross-shard namespace intents committed (rolled forward)", nil,
		s.nsCommits.Load)
	r.CounterFunc("redbud_meta_ns_aborts_total", "cross-shard namespace intents aborted (rolled back)", nil,
		s.nsAborts.Load)
	r.GaugeFunc("redbud_meta_ns_intents", "live cross-shard namespace intents (saga backlog)", nil,
		s.nsIntents.count)
	if j := s.cfg.Journal; j != nil {
		r.CounterFunc("redbud_meta_journal_appends_total", "journal records appended", nil,
			func() int64 { a, _ := j.GroupCommitStats(); return a })
		r.CounterFunc("redbud_meta_journal_batches_total", "journal group-commit batches flushed", nil,
			func() int64 { _, b := j.GroupCommitStats(); return b })
		r.CounterFunc("redbud_meta_journal_absorbed_ns_total", "nanoseconds batches were submitted past their modeled instants, absorbed by charging them from those instants", nil,
			j.absorbed.Load)
	}
}

// Durable waits for an applied mutation's journal record and returns the
// modeled instant it became durable: the end of its group-commit batch's
// device write. A mutation that journaled nothing is durable at once, at the
// zero time.
type Durable func() (time.Time, error)

// journalAppend appends rec (if a journal is configured) while the caller
// holds the lock that ordered the mutation, then waits for durability after
// the caller releases it. at is the modeled instant the mutation was applied
// (the zero time means now); the record's batch starts no earlier. It returns
// a wait function; call it with the lock dropped.
func (s *Store) journalAppend(at time.Time, rec *Record) Durable {
	if s.cfg.Journal == nil {
		return noWait
	}
	ch := make(chan durability, 1)
	s.cfg.Journal.appendAt(at, rec, timedWaiter(ch))
	return func() (time.Time, error) {
		d := <-ch
		return d.at, d.err
	}
}

// noWait is the durable function of a mutation that journaled nothing: a
// retry of one already applied, or one with nothing to record.
func noWait() (time.Time, error) { return time.Time{}, nil }

// settle finishes a Begin<Op> the wait-inline way: a refusal is returned as
// is, an applied mutation once its record is durable.
func settle(durable Durable, err error) error {
	if err != nil {
		return err
	}
	_, err = durable()
	return err
}

// ---------------------------------------------------------------------------
// Namespace operations

// Create makes a file or directory under parent and returns its attributes.
func (s *Store) Create(parent FileID, name string, typ FileType) (Attr, error) {
	attr, _, durable, err := s.BeginCreate(time.Time{}, "", parent, name, typ)
	if err := settle(durable, err); err != nil {
		return Attr{}, err
	}
	return attr, nil
}

// BeginCreate is the apply half of Create, on behalf of a delegation owner
// ("" for none): granted reports that owner holds the new regular file's
// delegation from the start.
//
// Every Begin<Op> takes the modeled instant at which its caller applies the
// mutation — an MDS handler passes the deadline its daemon charged the
// operation to — and the record's group-commit batch is charged from no
// earlier than that, whenever the host got to it. The zero time means now.
func (s *Store) BeginCreate(at time.Time, owner string, parent FileID, name string, typ FileType) (attr Attr, granted bool, durable Durable, err error) {
	if name == "" || name == "." || name == ".." {
		return Attr{}, false, nil, fmt.Errorf("%w: %q", ErrInvalidName, name)
	}
	s.ns.Lock()
	dir, ok := s.dirents[parent]
	if !ok {
		s.ns.Unlock()
		return Attr{}, false, nil, fmt.Errorf("%w: parent %d", ErrNotFound, parent)
	}
	if _, dup := dir[name]; dup {
		s.ns.Unlock()
		return Attr{}, false, nil, fmt.Errorf("%w: %q", ErrExists, name)
	}
	if s.nsIntents.removePending(parent) {
		s.ns.Unlock()
		return Attr{}, false, nil, fmt.Errorf("%w: directory %d has a pending remove", ErrNSConflict, parent)
	}
	if s.nsIntents.reservedName(parent, name) {
		s.ns.Unlock()
		return Attr{}, false, nil, fmt.Errorf("%w: %q reserved by a pending rename", ErrNSConflict, name)
	}
	id := s.mintID()
	s.applyCreate(id, parent, name, typ, s.clk.Now())
	attr = s.inodes[id].attr()
	granted = typ == TypeFile && s.fdelegs.grant(owner, id, true)
	durable = s.journalAppend(at, &Record{Type: RecCreate, File: id, Parent: parent, Name: name, FType: typ, MTime: attr.MTime})
	s.ns.Unlock()
	return attr, granted, durable, nil
}

// applyCreate mutates state; caller holds ns exclusively.
func (s *Store) applyCreate(id, parent FileID, name string, typ FileType, mtime time.Time) {
	ino := &inode{id: id, typ: typ, mtime: mtime, nlink: 1}
	s.inodes[id] = ino
	s.dirents[parent][name] = id
	if typ == TypeDir {
		s.dirents[id] = make(map[string]FileID)
	}
	if id >= s.nextID {
		s.nextID = id + 1
	}
}

// Lookup resolves name under parent.
func (s *Store) Lookup(parent FileID, name string) (Attr, error) {
	attr, _, err := s.LookupAs("", parent, name)
	return attr, err
}

// LookupAs is Lookup on behalf of a delegation owner ("" for none): granted
// reports that owner holds the delegation on the regular file the name
// resolved to. A child homed on another shard is never granted here — the
// delegation lives with the inode.
func (s *Store) LookupAs(owner string, parent FileID, name string) (attr Attr, granted bool, err error) {
	s.ns.RLock()
	defer s.ns.RUnlock()
	dir, ok := s.dirents[parent]
	if !ok {
		return Attr{}, false, fmt.Errorf("%w: parent %d", ErrNotFound, parent)
	}
	id, ok := dir[name]
	if !ok {
		return Attr{}, false, fmt.Errorf("%w: %q", ErrNotFound, name)
	}
	ino, local := s.inodes[id]
	if !local {
		// A child homed on another shard: serve identity and type from the
		// edge record; size and mtime live on the home shard (GetAttr
		// there).
		if t, ok := s.remote[id]; ok {
			return Attr{ID: id, Type: t}, false, nil
		}
		return Attr{}, false, fmt.Errorf("%w: %q", ErrNotFound, name)
	}
	attr, granted = s.attrAs(owner, ino)
	return attr, granted, nil
}

// GetAttr returns the attributes of an inode.
func (s *Store) GetAttr(id FileID) (Attr, error) {
	attr, _, err := s.GetAttrAs("", id)
	return attr, err
}

// GetAttrAs is GetAttr on behalf of a delegation owner ("" for none), granting
// like LookupAs.
func (s *Store) GetAttrAs(owner string, id FileID) (attr Attr, granted bool, err error) {
	s.ns.RLock()
	defer s.ns.RUnlock()
	ino, ok := s.inodes[id]
	if !ok {
		return Attr{}, false, fmt.Errorf("%w: inode %d", ErrNotFound, id)
	}
	attr, granted = s.attrAs(owner, ino)
	return attr, granted, nil
}

// attrAs reads ino's attributes and, for a regular file, tries to grant owner
// its delegation — under the stripe lock, so that a commit by somebody else
// either is in the attributes or finds the grant. Caller holds ns shared.
func (s *Store) attrAs(owner string, ino *inode) (Attr, bool) {
	st := s.stripe(ino.id)
	st.RLock()
	attr := ino.attr()
	granted := ino.typ == TypeFile && s.fdelegs.grant(owner, ino.id, false)
	st.RUnlock()
	return attr, granted
}

// ReadDir lists a directory.
func (s *Store) ReadDir(id FileID) ([]DirEnt, error) {
	s.ns.RLock()
	defer s.ns.RUnlock()
	ino, ok := s.inodes[id]
	if !ok {
		return nil, fmt.Errorf("%w: inode %d", ErrNotFound, id)
	}
	if ino.typ != TypeDir {
		return nil, fmt.Errorf("%w: inode %d", ErrNotDir, id)
	}
	out := make([]DirEnt, 0, len(s.dirents[id]))
	for name, cid := range s.dirents[id] {
		child, local := s.inodes[cid]
		if !local {
			// Remote-homed child: type from the edge record, size unknown
			// here (callers that need it stat the home shard).
			out = append(out, DirEnt{Name: name, ID: cid, Type: s.remote[cid]})
			continue
		}
		st := s.stripe(cid)
		st.RLock()
		size := child.size
		st.RUnlock()
		out = append(out, DirEnt{Name: name, ID: cid, Type: child.typ, Size: size})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out, nil
}

// Remove unlinks name under parent, freeing the file's space.
func (s *Store) Remove(parent FileID, name string) error {
	return settle(s.BeginRemove(time.Time{}, "", parent, name))
}

// BeginRemove is the apply half of Remove, on behalf of a delegation owner
// ("" for none). It fails with *DelegHeld, having changed nothing, while
// another owner holds the file's delegation — or, for a directory, any
// delegation at all.
func (s *Store) BeginRemove(at time.Time, owner string, parent FileID, name string) (durable Durable, err error) {
	s.ns.Lock()
	dir, ok := s.dirents[parent]
	if !ok {
		s.ns.Unlock()
		return nil, fmt.Errorf("%w: parent %d", ErrNotFound, parent)
	}
	id, ok := dir[name]
	if !ok {
		s.ns.Unlock()
		return nil, fmt.Errorf("%w: %q", ErrNotFound, name)
	}
	ino, local := s.inodes[id]
	if !local {
		// Remote-homed child: the inode (and, for a directory, its
		// emptiness) lives on its home shard — the client must use the
		// cross-shard remove protocol instead.
		s.ns.Unlock()
		return nil, fmt.Errorf("%w: inode %d", ErrWrongShard, id)
	}
	if s.nsIntents.has(id) {
		s.ns.Unlock()
		return nil, fmt.Errorf("%w: inode %d is under a namespace intent", ErrNSConflict, id)
	}
	if ino.typ == TypeDir && len(s.dirents[id]) > 0 {
		s.ns.Unlock()
		return nil, fmt.Errorf("%w: %q", ErrNotEmpty, name)
	}
	if held := s.delegConflict(owner, ino); held != nil {
		s.ns.Unlock()
		return nil, held
	}
	freed := s.applyRemove(parent, name, id)
	durable = s.journalAppend(at, &Record{Type: RecRemove, File: id, Parent: parent, Name: name})
	s.ns.Unlock()
	for _, sp := range freed {
		_ = s.cfg.AGs.FreeSpan(sp)
	}
	return durable, nil
}

// applyRemove unlinks and returns the spans to free. Caller holds ns
// exclusively.
func (s *Store) applyRemove(parent FileID, name string, id FileID) []alloc.Span {
	ino := s.inodes[id]
	delete(s.dirents[parent], name)
	ino.nlink--
	if ino.nlink > 0 {
		return nil
	}
	return s.freeInode(id)
}

// ---------------------------------------------------------------------------
// Layouts and commits

// GetLayout returns the committed extents of file overlapping [off, off+n).
// Uncommitted extents stay hidden: the ordered-write guarantee means their
// data may not exist yet.
func (s *Store) GetLayout(id FileID, off, n int64) (Layout, error) {
	s.ns.RLock()
	defer s.ns.RUnlock()
	ino, ok := s.inodes[id]
	if !ok {
		return Layout{}, fmt.Errorf("%w: inode %d", ErrNotFound, id)
	}
	if ino.typ != TypeFile {
		return Layout{}, fmt.Errorf("%w: inode %d", ErrIsDir, id)
	}
	st := s.stripe(id)
	st.RLock()
	lay := Layout{File: id, Extents: ino.extentsIn(off, n, true)}
	st.RUnlock()
	return lay, nil
}

// AllocLayout returns a layout covering [off, off+n) for writing, allocating
// space for any uncovered gap. New extents start uncommitted and are
// attributed to owner for orphan GC.
func (s *Store) AllocLayout(owner string, id FileID, off, n int64) (Layout, error) {
	lay, durable, err := s.BeginAllocLayout(time.Time{}, owner, id, off, n)
	if err := settle(durable, err); err != nil {
		return Layout{}, err
	}
	return lay, nil
}

// BeginAllocLayout is the apply half of AllocLayout.
func (s *Store) BeginAllocLayout(at time.Time, owner string, id FileID, off, n int64) (lay Layout, durable Durable, err error) {
	s.ns.RLock()
	ino, ok := s.inodes[id]
	if !ok {
		s.ns.RUnlock()
		return Layout{}, nil, fmt.Errorf("%w: inode %d", ErrNotFound, id)
	}
	if ino.typ != TypeFile {
		s.ns.RUnlock()
		return Layout{}, nil, fmt.Errorf("%w: inode %d", ErrIsDir, id)
	}
	// Uncovered sub-ranges of [off, off+n).
	st := s.stripe(id)
	st.RLock()
	var used []ival
	for _, e := range ino.extents {
		used = addIval(used, e.FileOff, e.End())
	}
	st.RUnlock()
	s.ns.RUnlock()
	holes := gaps(off, off+n, used)

	// Allocate outside the locks (AGs have their own locks).
	var newExts []Extent
	for _, h := range holes {
		spans, err := s.cfg.AGs.AllocExtents(owner, h.end-h.off)
		if err != nil {
			for _, e := range newExts {
				_ = s.cfg.AGs.FreeSpan(alloc.Span{Dev: int(e.Dev), Off: e.VolOff, Len: e.Len})
			}
			return Layout{}, nil, err
		}
		fo := h.off
		for _, sp := range spans {
			newExts = append(newExts, Extent{FileOff: fo, Len: sp.Len, Dev: uint32(sp.Dev), VolOff: sp.Off, State: StateUncommitted})
			fo += sp.Len
		}
	}

	s.ns.RLock()
	ino, ok = s.inodes[id]
	if !ok {
		s.ns.RUnlock()
		for _, e := range newExts {
			_ = s.cfg.AGs.FreeSpan(alloc.Span{Dev: int(e.Dev), Off: e.VolOff, Len: e.Len})
		}
		return Layout{}, nil, fmt.Errorf("%w: inode %d removed during allocation", ErrNotFound, id)
	}
	st.Lock()
	if err := s.applyAlloc(ino, owner, newExts); err != nil {
		st.Unlock()
		s.ns.RUnlock()
		for _, e := range newExts {
			_ = s.cfg.AGs.FreeSpan(alloc.Span{Dev: int(e.Dev), Off: e.VolOff, Len: e.Len})
		}
		return Layout{}, nil, err
	}
	lay = Layout{File: id, Extents: ino.extentsIn(off, n, false)}
	durable = noWait
	if len(newExts) > 0 {
		durable = s.journalAppend(at, &Record{Type: RecAlloc, File: id, Owner: owner, Extents: newExts})
	}
	st.Unlock()
	s.ns.RUnlock()
	return lay, durable, nil
}

// applyAlloc publishes exts as owner's write intents and inserts them as
// uncommitted extents. Caller holds the inode's stripe lock or ns
// exclusively. Publication goes first: a conflicting intent (wrapped
// ErrIntentConflict) rejects the allocation before the inode is touched.
func (s *Store) applyAlloc(ino *inode, owner string, exts []Extent) error {
	if err := s.intents.publish(ino.id, owner, exts); err != nil {
		return err
	}
	for _, e := range exts {
		ino.extents = insertExtent(ino.extents, e)
	}
	return nil
}

// insertExtent inserts e keeping the list sorted by FileOff.
func insertExtent(list []Extent, e Extent) []Extent {
	i := sort.Search(len(list), func(i int) bool { return list[i].FileOff >= e.FileOff })
	list = append(list, Extent{})
	copy(list[i+1:], list[i:])
	list[i] = e
	return list
}

// Commit marks extents committed, updating size and mtime — the metadata
// half of an ordered write. Each extent must either match an uncommitted
// extent previously returned by AllocLayout, or lie inside one of owner's
// delegations (client-side allocation). Anything else is rejected: metadata
// must never point at space the MDS didn't account.
//
// Commits run under the shared namespace lock plus the file's stripe lock,
// so commits to different files proceed in parallel and their journal
// records coalesce in the group-commit batcher.
func (s *Store) Commit(owner string, id FileID, exts []Extent, size int64, mtime time.Time) error {
	return settle(s.BeginCommit(time.Time{}, owner, id, exts, size, mtime, 0, obs.SpanContext{}))
}

// BeginCommit is the apply half of Commit: it validates and applies the
// commit under the file's locks and hands its record to the journal, in that
// lock's order. A rejected commit changes nothing and returns the error. On
// success the returned function blocks until the record is durable; the
// commit must not be acknowledged — nor remembered as executed — before it
// returns nil. A caller with several commits in hand begins them all before
// waiting for any, so their records share group-commit batches; that is safe
// because commits to different files commute, and one file's commits reach
// the journal in the order they were begun.
//
// commitID is the client-assigned commit ID for span correlation. The span
// timeline splits the commit into lock wait (namespace + stripe acquisition),
// apply (mutation under the stripe lock, including the journal append
// handoff), and journal (record handed over → caller saw it durable, which
// for a gathered wait includes the time the caller spent beginning other
// commits). When tc is non-zero the three spans link under tc.SpanID (the
// MDS commit handler span), stitching the store into the client's
// distributed trace. All spans are recorded after the locks are dropped so
// tracing can never extend a lock hold.
func (s *Store) BeginCommit(at time.Time, owner string, id FileID, exts []Extent, size int64, mtime time.Time, commitID uint64, tc obs.SpanContext) (durable Durable, err error) {
	traced := s.cfg.Tracer.Enabled() && commitID != 0
	var lockStart, applyStart time.Time
	if traced {
		lockStart = s.clk.Now()
	}
	s.ns.RLock()
	ino, ok := s.inodes[id]
	if !ok {
		s.ns.RUnlock()
		return nil, fmt.Errorf("%w: inode %d", ErrNotFound, id)
	}
	if ino.typ != TypeFile {
		s.ns.RUnlock()
		return nil, fmt.Errorf("%w: inode %d", ErrIsDir, id)
	}
	st := s.stripe(id)
	st.Lock()
	if traced {
		applyStart = s.clk.Now()
	}
	// Validated before anything can make it wait: a commit that is not
	// acceptable as it arrives — one built in a session this MDS never saw,
	// naming space recovery took back — must be refused now, not re-examined
	// a lease term later, when the same space may have been delegated again.
	acts, err := s.checkCommit(ino, owner, exts, true)
	if err != nil {
		st.Unlock()
		s.ns.RUnlock()
		return nil, err
	}
	if r := s.fdelegs.conflict(owner, id); r != nil {
		// Somebody else may be serving opens of this file from its cache:
		// the commit waits (in the caller, with no lock held) until the
		// delegation is back.
		st.Unlock()
		s.ns.RUnlock()
		return nil, &DelegHeld{Recalls: []*Recall{r}}
	}
	s.applyCommitActs(ino, owner, acts, size, mtime)
	rec := &Record{Type: RecCommit, File: id, Owner: owner, Size: size, MTime: mtime, Extents: exts}
	wait := s.journalAppend(at, rec)
	st.Unlock()
	s.ns.RUnlock()
	if !traced {
		return wait, nil
	}
	jStart := s.clk.Now()
	return func() (time.Time, error) {
		at, err := wait()
		end := s.clk.Now()
		s.cfg.Tracer.RecordSpan(obs.Span{Track: s.track, Name: obs.SpanMDSLockWait, CommitID: commitID,
			TraceID: tc.TraceID, SpanID: childSpan(tc, obs.SpanMDSLockWait), Parent: tc.SpanID,
			Start: lockStart, End: applyStart})
		s.cfg.Tracer.RecordSpan(obs.Span{Track: s.track, Name: obs.SpanMDSApply, CommitID: commitID,
			TraceID: tc.TraceID, SpanID: childSpan(tc, obs.SpanMDSApply), Parent: tc.SpanID,
			Start: applyStart, End: jStart})
		s.cfg.Tracer.RecordSpan(obs.Span{Track: s.track, Name: obs.SpanMDSJournal, CommitID: commitID,
			TraceID: tc.TraceID, SpanID: childSpan(tc, obs.SpanMDSJournal), Parent: tc.SpanID,
			Start: jStart, End: end})
		return at, err
	}, nil
}

// childSpan derives the span id of one store-side child, or 0 when the
// request carried no trace context (untraced spans stay unlinked).
func childSpan(tc obs.SpanContext, name string) uint64 {
	if tc.SpanID == 0 {
		return 0
	}
	return obs.NewSpanID(tc.SpanID, name)
}

// applyCommit flips or inserts committed extents. Caller holds the inode's
// stripe lock (runtime) or ns exclusively (replay). When strict is set,
// unknown extents outside delegations are rejected (runtime behaviour);
// replay runs non-strict only for records already validated.
func (s *Store) applyCommit(ino *inode, owner string, exts []Extent, size int64, mtime time.Time, strict bool) error {
	// Validate first, then mutate, so a rejected commit changes nothing.
	acts, err := s.checkCommit(ino, owner, exts, strict)
	if err != nil {
		return err
	}
	s.applyCommitActs(ino, owner, acts, size, mtime)
	return nil
}

// commitAction is one validated extent of a commit.
type commitAction struct {
	idx int // >= 0: flip existing extent
	ext Extent
}

// checkCommit is the validation half of applyCommit: it changes nothing.
func (s *Store) checkCommit(ino *inode, owner string, exts []Extent, strict bool) ([]commitAction, error) {
	var acts []commitAction
	for _, e := range exts {
		idx := -1
		for i, have := range ino.extents {
			if have.VolOff == e.VolOff && have.Dev == e.Dev && have.FileOff == e.FileOff && have.Len == e.Len {
				idx = i
				break
			}
		}
		if idx >= 0 {
			acts = append(acts, commitAction{idx: idx, ext: e})
			continue
		}
		if strict && s.findDelegation(owner, e) == nil {
			return nil, fmt.Errorf("%w: extent dev%d[%d+%d) of file %d", ErrBadCommit, e.Dev, e.VolOff, e.Len, ino.id)
		}
		// Overlap with a different existing extent is a client bug.
		for _, have := range ino.extents {
			if e.FileOff < have.End() && have.FileOff < e.FileOff+e.Len {
				return nil, fmt.Errorf("%w: extent overlaps existing file range [%d+%d)", ErrBadCommit, have.FileOff, have.Len)
			}
		}
		acts = append(acts, commitAction{idx: -1, ext: e})
	}
	return acts, nil
}

// applyCommitActs is the mutation half of applyCommit, for a commit
// checkCommit has accepted under the same lock hold.
func (s *Store) applyCommitActs(ino *inode, owner string, acts []commitAction, size int64, mtime time.Time) {
	for _, a := range acts {
		if a.idx >= 0 {
			ino.extents[a.idx].State = StateCommitted
			s.intents.graduate(ino.id, a.ext)
		} else {
			e := a.ext
			e.State = StateCommitted
			ino.extents = insertExtent(ino.extents, e)
		}
		if d := s.findDelegation(owner, a.ext); d != nil {
			d.mu.Lock()
			d.used = addIval(d.used, a.ext.VolOff, a.ext.VolOff+a.ext.Len)
			d.mu.Unlock()
		}
	}
	if size > ino.size {
		ino.size = size
	}
	if mtime.After(ino.mtime) {
		ino.mtime = mtime
	}
}

// findDelegation returns owner's delegation containing extent e, if any.
// Caller holds ns (shared or exclusive); span is immutable after grant.
func (s *Store) findDelegation(owner string, e Extent) *delegation {
	for _, d := range s.delegations[owner] {
		if d.span.Dev == int(e.Dev) && e.VolOff >= d.span.Off && e.VolOff+e.Len <= d.span.End() {
			return d
		}
	}
	return nil
}

// ---------------------------------------------------------------------------
// Space delegation

// BeginDelegate grants owner a contiguous chunk of physical space for local
// small-file allocation (§IV-A). The chunk is owner's once durable returns
// nil.
func (s *Store) BeginDelegate(at time.Time, owner string, size int64) (sp alloc.Span, durable Durable, err error) {
	sp, err = s.cfg.AGs.Alloc(owner, size)
	if err != nil {
		return alloc.Span{}, nil, err
	}
	s.ns.Lock()
	s.delegations[owner] = append(s.delegations[owner], &delegation{owner: owner, span: sp})
	durable = s.journalAppend(at, &Record{Type: RecDelegate, Owner: owner, SpanDev: uint32(sp.Dev), SpanOff: sp.Off, SpanLen: sp.Len})
	s.ns.Unlock()
	return sp, durable, nil
}

// BeginReturnDelegation gives back a delegation; sub-ranges never committed
// are freed.
func (s *Store) BeginReturnDelegation(at time.Time, owner string, sp alloc.Span) (durable Durable, err error) {
	s.ns.Lock()
	ds := s.delegations[owner]
	idx := -1
	for i, d := range ds {
		if d.span == sp {
			idx = i
			break
		}
	}
	if idx < 0 {
		s.ns.Unlock()
		return nil, fmt.Errorf("%w: %s %v", ErrNoDelegation, owner, sp)
	}
	d := ds[idx]
	s.delegations[owner] = append(ds[:idx], ds[idx+1:]...)
	holes := gaps(d.span.Off, d.span.End(), d.used)
	durable = s.journalAppend(at, &Record{Type: RecDelegReturn, Owner: owner, SpanDev: uint32(sp.Dev), SpanOff: sp.Off, SpanLen: sp.Len})
	s.ns.Unlock()
	for _, h := range holes {
		_ = s.cfg.AGs.FreeSpan(alloc.Span{Dev: sp.Dev, Off: h.off, Len: h.end - h.off})
	}
	return durable, nil
}

// ClientGone revokes everything owner holds: space delegations (their never-
// committed sub-ranges are freed), file delegations (recalled without waiting)
// and uncommitted layout-get extents (orphan space, removed from files and
// freed). This is the paper's orphan garbage collection, triggered by lease
// expiry or recovery.
func (s *Store) ClientGone(owner string) (orphanBytes int64) {
	s.fdelegs.revoke(owner)
	s.ns.Lock()
	freed := s.applyClientGone(owner)
	wait := s.journalAppend(time.Time{}, &Record{Type: RecClientGone, Owner: owner})
	s.ns.Unlock()
	for _, sp := range freed {
		orphanBytes += sp.Len
		_ = s.cfg.AGs.FreeSpan(sp)
	}
	_, _ = wait()
	return orphanBytes
}

// applyClientGone collects the spans to free. Caller holds ns exclusively.
// Rolling back the owner's write intents removes their uncommitted extents
// from the affected files; no reader was ever shown them.
func (s *Store) applyClientGone(owner string) []alloc.Span {
	var freed []alloc.Span
	for _, d := range s.delegations[owner] {
		for _, h := range gaps(d.span.Off, d.span.End(), d.used) {
			freed = append(freed, alloc.Span{Dev: d.span.Dev, Off: h.off, Len: h.end - h.off})
		}
	}
	delete(s.delegations, owner)
	for fid, exts := range s.intents.rollbackOwner(owner) {
		ino, ok := s.inodes[fid]
		if !ok {
			continue
		}
		kept := ino.extents[:0]
		for _, e := range ino.extents {
			dropped := false
			if e.State == StateUncommitted {
				for _, re := range exts {
					if sameExtent(re, e) {
						dropped = true
						break
					}
				}
			}
			if dropped {
				freed = append(freed, alloc.Span{Dev: int(e.Dev), Off: e.VolOff, Len: e.Len})
				continue
			}
			kept = append(kept, e)
		}
		ino.extents = kept
	}
	return freed
}

// Delegations returns the number of live delegations for owner (tests).
func (s *Store) Delegations(owner string) int {
	s.ns.RLock()
	defer s.ns.RUnlock()
	return len(s.delegations[owner])
}

// ---------------------------------------------------------------------------
// Recovery

// RecoveryStats summarizes a journal replay.
type RecoveryStats struct {
	Records     int
	Files       int
	OrphanBytes int64 // space reclaimed from uncommitted allocations
	Delegations int   // delegations revoked during GC
	Torn        bool  // replay ended at a torn (partially written) record
}

// Recover rebuilds a store from cfg.Journal, then garbage-collects orphan
// space: every client is presumed gone after a crash, so all uncommitted
// allocations and all never-committed delegation sub-ranges return to the
// free pool. The AG set in cfg must be fresh (fully free).
func Recover(cfg Config) (*Store, RecoveryStats, error) {
	if cfg.Journal == nil {
		return nil, RecoveryStats{}, ErrNoJournal
	}
	j := cfg.Journal
	cfgNoJournal := cfg
	cfgNoJournal.Journal = nil // replay must not re-journal
	s := NewStore(cfgNoJournal)

	var st RecoveryStats
	torn, err := j.Replay(func(rec *Record) error {
		st.Records++
		return s.applyRecord(rec)
	})
	if err != nil {
		return nil, st, err
	}
	st.Torn = torn

	// GC pass: all owners are gone.
	s.ns.Lock()
	owners := make([]string, 0, len(s.delegations))
	for o := range s.delegations {
		owners = append(owners, o)
		st.Delegations += len(s.delegations[o])
	}
	ownerSet := map[string]bool{}
	for _, o := range owners {
		ownerSet[o] = true
	}
	for _, o := range s.intents.owners() {
		ownerSet[o] = true
	}
	s.ns.Unlock()

	s.SetJournal(cfg.Journal) // journal GC records and future mutations
	for o := range ownerSet {
		st.OrphanBytes += s.ClientGone(o)
	}
	st.Files = s.FileCount()
	return s, st, nil
}

// applyRecord replays one journal record. Caller does NOT hold any store
// lock; replay takes ns exclusively per record.
func (s *Store) applyRecord(rec *Record) error {
	s.ns.Lock()
	defer s.ns.Unlock()
	switch rec.Type {
	case RecCreate:
		if _, ok := s.dirents[rec.Parent]; !ok {
			return fmt.Errorf("%w: replay create under missing dir %d", ErrNotFound, rec.Parent)
		}
		s.applyCreate(rec.File, rec.Parent, rec.Name, rec.FType, rec.MTime)
	case RecRemove:
		if dir, ok := s.dirents[rec.Parent]; ok {
			if id, ok := dir[rec.Name]; ok {
				freed := s.applyRemove(rec.Parent, rec.Name, id)
				for _, sp := range freed {
					_ = s.cfg.AGs.FreeSpan(sp)
				}
			}
		}
	case RecAlloc:
		ino, ok := s.inodes[rec.File]
		if !ok {
			return fmt.Errorf("%w: replay alloc for missing file %d", ErrNotFound, rec.File)
		}
		for _, e := range rec.Extents {
			if err := s.cfg.AGs.ReserveSpan(alloc.Span{Dev: int(e.Dev), Off: e.VolOff, Len: e.Len}); err != nil {
				return err
			}
		}
		return s.applyAlloc(ino, rec.Owner, rec.Extents)
	case RecCommit:
		ino, ok := s.inodes[rec.File]
		if !ok {
			// The file was later removed; nothing to do.
			return nil
		}
		// Delegation-carved extents were never individually reserved;
		// their space is covered by the RecDelegate reservation.
		return s.applyCommit(ino, rec.Owner, rec.Extents, rec.Size, rec.MTime, false)
	case RecDelegate:
		sp := alloc.Span{Dev: int(rec.SpanDev), Off: rec.SpanOff, Len: rec.SpanLen}
		if err := s.cfg.AGs.ReserveSpan(sp); err != nil {
			return err
		}
		s.delegations[rec.Owner] = append(s.delegations[rec.Owner], &delegation{owner: rec.Owner, span: sp})
	case RecDelegReturn:
		sp := alloc.Span{Dev: int(rec.SpanDev), Off: rec.SpanOff, Len: rec.SpanLen}
		ds := s.delegations[rec.Owner]
		for i, d := range ds {
			if d.span == sp {
				s.delegations[rec.Owner] = append(ds[:i], ds[i+1:]...)
				for _, h := range gaps(sp.Off, sp.End(), d.used) {
					_ = s.cfg.AGs.FreeSpan(alloc.Span{Dev: sp.Dev, Off: h.off, Len: h.end - h.off})
				}
				break
			}
		}
	case RecClientGone:
		freed := s.applyClientGone(rec.Owner)
		for _, sp := range freed {
			_ = s.cfg.AGs.FreeSpan(sp)
		}
	case RecRename:
		if dir, ok := s.dirents[rec.Parent]; ok {
			if id, ok := dir[rec.Name]; ok && id == rec.File {
				if _, ok := s.dirents[rec.DstParent]; ok {
					s.applyRename(rec.Parent, rec.Name, rec.DstParent, rec.DstName, rec.File)
				}
			}
		}
	case RecNSIntent:
		in := NSIntent{
			File: rec.File, Kind: rec.NSKind, Type: rec.FType,
			Parent: rec.Parent, Name: rec.Name,
			DstParent: rec.DstParent, DstName: rec.DstName,
		}
		if _, err := s.nsIntents.publish(in); err != nil {
			return err
		}
		if rec.NSKind == NSCreate {
			s.applyCreateDetached(rec.File, rec.FType, rec.MTime)
		}
	case RecNSCommit:
		if in, ok := s.nsIntents.get(rec.File); ok && in.Kind == rec.NSKind {
			for _, sp := range s.applyNSCommit(in) {
				_ = s.cfg.AGs.FreeSpan(sp)
			}
		}
	case RecNSAbort:
		if in, ok := s.nsIntents.get(rec.File); ok && in.Kind == rec.NSKind {
			for _, sp := range s.applyNSAbort(in) {
				_ = s.cfg.AGs.FreeSpan(sp)
			}
		}
	case RecLinkRemote:
		// The commit-point marker is rebuilt even when the dirent apply is
		// moot (snapshot edge markers carry no parent; a later rename may
		// have moved the entry) — a post-recovery retry must still see it.
		s.linkDone[rec.File] = struct{}{}
		if _, ok := s.dirents[rec.Parent]; ok {
			s.applyLink(rec.Parent, rec.Name, rec.File, rec.FType)
		}
	case RecUnlinkRemote:
		s.unlinkDone[rec.File] = struct{}{}
		if dir, ok := s.dirents[rec.Parent]; ok {
			if id, ok := dir[rec.Name]; ok && id == rec.File {
				s.applyUnlink(rec.Parent, rec.Name)
			}
		}
	default:
		return fmt.Errorf("%w: unknown record type %d", ErrJournalCorrupt, rec.Type)
	}
	return nil
}

// FileCount returns the number of inodes excluding the root.
func (s *Store) FileCount() int {
	s.ns.RLock()
	defer s.ns.RUnlock()
	n := len(s.inodes)
	if _, ok := s.inodes[RootID]; ok {
		n--
	}
	return n
}

// CheckConsistent verifies the global invariant behind ordered writes, via
// the supplied durability oracle (usually blockdev.Device.IsDurable): every
// committed extent's data must be durable. It returns the violations found.
func (s *Store) CheckConsistent(durable func(dev int, off, n int64) bool) []Extent {
	s.ns.Lock()
	defer s.ns.Unlock()
	var bad []Extent
	for _, ino := range s.inodes {
		for _, e := range ino.extents {
			if e.State == StateCommitted && !durable(int(e.Dev), e.VolOff, e.Len) {
				bad = append(bad, e)
			}
		}
	}
	return bad
}
