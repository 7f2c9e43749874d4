package meta

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"sort"
	"sync"
	"time"

	"redbud/internal/alloc"
)

// This file implements the multi-shard side of the metadata store: the
// inode-to-shard partition, the cross-shard namespace intent table, and the
// two-phase create/remove/rename protocol that keeps a namespace spread over
// N independent stores recoverable after a crash of any of them.
//
// Partition model. Every inode — file or directory — is homed on exactly one
// shard, ShardOf(id). The home shard holds the inode (attributes, extents,
// space) and, for a directory, its dirent map; a child's dirent therefore
// lives on its *parent's* home shard. A shard records the two kinds of
// cross-shard edges it participates in:
//
//   - remote:       children listed in a local dirent map whose inode is
//     homed elsewhere (the dirent side of the edge);
//   - linkedRemote: local inodes whose single dirent lives elsewhere (the
//     inode side of the edge).
//
// Cross-shard mutations are client-orchestrated two-phase protocols. Phase
// one publishes a namespace intent (journaled, one live intent per inode per
// shard — publication conflicts serialize concurrent cross-shard operations
// on the same inode); the commit point is a single dirent mutation on one
// shard; remaining steps are idempotent and individually retryable. The
// create/remove commit points (LinkRemote/UnlinkRemote) are exactly-once,
// not merely idempotent: the executing shard durably marks the child in
// linkDone/unlinkDone, because the intent lives on a *different* shard than
// the dirent, so a rename on the dirent's shard can move the entry between
// phases — a retry that merely probed the entry would then re-insert a
// second reference, or claim an unlink it never performed and let the home
// shard free a still-referenced inode. A client crash at any point leaves
// live intents that ResolveNSIntents — run on a quiesced cluster — drives to
// the unique consistent outcome by probing which side of the commit point
// the surviving dirents are on.
//
//	create  f under d (t = ShardOf(f) ≠ p = ShardOf(d)):
//	  1. CreateDetached on t   — mint inode + nsCreate intent
//	  2. LinkRemote on p       — insert dirent          (COMMIT POINT)
//	  3. NSCommit(create) on t — graduate to linkedRemote
//	remove  f from d (h = ShardOf(f) ≠ p):
//	  1. NSPrepare(remove) on h — validate (dir emptiness), publish intent
//	  2. UnlinkRemote on p      — delete dirent          (COMMIT POINT)
//	  3. NSCommit(remove) on h  — delete inode, free space
//	rename  f: (sp, srcName) → (dp, dstName), sp ≠ dp, files only:
//	  1. NSPrepare(renameSrc) on sp — validate src dirent, publish intent
//	  2. NSPrepare(renameDst) on dp — reserve dst name, publish intent
//	  3. NSCommit(renameSrc) on sp  — delete src dirent  (COMMIT POINT)
//	  4. NSCommit(renameDst) on dp  — insert dst dirent
//
// The rename commit order is deliberate: the src dirent is deleted first, so
// a crash between 3 and 4 leaves the dst intent (journaled in step 2) to
// roll the insert forward — the file converges to exactly one of the two
// names, never both and never neither. A live intent on an inode blocks
// every other namespace operation on it (and an NSRemove intent on a
// directory blocks inserts into it), so the probes stay unambiguous.

// ShardOf maps an inode to its home shard. The partition reuses the
// per-inode stripe split: the id's stripe class (id mod inodeStripes) is
// folded over the shard count, so shard counts dividing inodeStripes give
// every shard an equal, disjoint set of stripe classes, and resolution
// depends only on the id — stable across re-handshakes and restarts.
func ShardOf(id FileID, shards int) int {
	if shards <= 1 {
		return 0
	}
	return int((uint64(id) % inodeStripes) % uint64(shards))
}

// PlaceShard picks the home shard for a new child of parent named name: an
// FNV-1a hash of (parent, name) folded over the shard count. The same
// (parent, name) always lands on the same shard, which keeps sharded runs
// replayable from their seed.
func PlaceShard(parent FileID, name string, shards int) int {
	if shards <= 1 {
		return 0
	}
	h := fnv.New64a()
	var pb [8]byte
	binary.LittleEndian.PutUint64(pb[:], uint64(parent))
	h.Write(pb[:])
	h.Write([]byte(name))
	return int(h.Sum64() % uint64(shards))
}

// NSIntentKind enumerates the cross-shard namespace intent kinds.
type NSIntentKind uint8

// Namespace intent kinds.
const (
	NSCreate NSIntentKind = iota + 1
	NSRemove
	NSRenameSrc
	NSRenameDst
)

func (k NSIntentKind) String() string {
	switch k {
	case NSCreate:
		return "create"
	case NSRemove:
		return "remove"
	case NSRenameSrc:
		return "rename-src"
	case NSRenameDst:
		return "rename-dst"
	}
	return fmt.Sprintf("ns-kind-%d", uint8(k))
}

// NSIntent is one live cross-shard namespace intent (introspection view).
// Parent/Name locate the inode's dirent on its parent's shard (for NSCreate
// the entry about to be inserted, for NSRemove/NSRenameSrc the existing one,
// for NSRenameDst the *source* entry the probe checks); DstParent/DstName is
// the reserved destination of an NSRenameDst.
type NSIntent struct {
	File      FileID
	Kind      NSIntentKind
	Type      FileType
	Parent    FileID
	Name      string
	DstParent FileID
	DstName   string
}

// nameKey identifies one directory entry.
type nameKey struct {
	parent FileID
	name   string
}

// nsIntentTable holds a shard's live namespace intents, keyed by inode — at
// most one live intent per inode per shard, so conflicting cross-shard
// operations on the same inode serialize at publish time. NSRenameDst
// intents additionally reserve their destination name, which every dirent
// insert checks.
//
// Lock hierarchy: mu ranks between the write-intent table and delegation
// (namespace → stripe → intent table → ns-intent table → delegation →
// journal reservation). Every mutation happens under the exclusive
// namespace lock; mu exists so read-side guards could move under the shared
// lock later without re-ranking, and is never held across a blocking
// operation.
type nsIntentTable struct {
	mu       sync.Mutex
	byFile   map[FileID]NSIntent
	reserved map[nameKey]FileID
}

func newNSIntentTable() *nsIntentTable {
	return &nsIntentTable{
		byFile:   make(map[FileID]NSIntent),
		reserved: make(map[nameKey]FileID),
	}
}

// publish records in, rejecting a conflicting live intent on the same inode
// or destination name. Republishing a byte-identical intent is an idempotent
// success (published=false): a client retrying a lost NSPrepare reply must
// not conflict with itself.
func (t *nsIntentTable) publish(in NSIntent) (published bool, err error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if have, ok := t.byFile[in.File]; ok {
		if have == in {
			return false, nil
		}
		return false, fmt.Errorf("%w: inode %d already under a %s intent", ErrNSConflict, in.File, have.Kind)
	}
	if in.Kind == NSRenameDst {
		key := nameKey{in.DstParent, in.DstName}
		if _, dup := t.reserved[key]; dup {
			return false, fmt.Errorf("%w: %q already reserved by a pending rename", ErrNSConflict, in.DstName)
		}
		t.reserved[key] = in.File
	}
	t.byFile[in.File] = in
	return true, nil
}

// drop removes the inode's live intent (and its name reservation).
func (t *nsIntentTable) drop(file FileID) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if in, ok := t.byFile[file]; ok {
		if in.Kind == NSRenameDst {
			delete(t.reserved, nameKey{in.DstParent, in.DstName})
		}
		delete(t.byFile, file)
	}
}

// get returns the live intent on file, if any.
func (t *nsIntentTable) get(file FileID) (NSIntent, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	in, ok := t.byFile[file]
	return in, ok
}

// has reports a live intent on file.
func (t *nsIntentTable) has(file FileID) bool {
	_, ok := t.get(file)
	return ok
}

// reservedName reports whether (parent, name) is reserved by a pending
// rename destination.
func (t *nsIntentTable) reservedName(parent FileID, name string) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	_, ok := t.reserved[nameKey{parent, name}]
	return ok
}

// removePending reports a live NSRemove intent on dir — a directory about to
// be deleted, into which no entry may be inserted.
func (t *nsIntentTable) removePending(dir FileID) bool {
	in, ok := t.get(dir)
	return ok && in.Kind == NSRemove
}

// count returns the number of live intents.
func (t *nsIntentTable) count() int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return int64(len(t.byFile))
}

// snapshot returns every live intent, sorted by inode for determinism.
func (t *nsIntentTable) snapshot() []NSIntent {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]NSIntent, 0, len(t.byFile))
	for _, in := range t.byFile {
		out = append(out, in)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].File < out[j].File })
	return out
}

// ---------------------------------------------------------------------------
// Store: shard identity and id minting

// Shard returns the store's (shard index, shard count); (0, 1) when
// unsharded.
func (s *Store) Shard() (int, int) {
	if s.cfg.ShardCount <= 1 {
		return 0, 1
	}
	return s.cfg.Shard, s.cfg.ShardCount
}

// ownsID reports whether this store is inode id's home shard.
func (s *Store) ownsID(id FileID) bool {
	return s.cfg.ShardCount <= 1 || ShardOf(id, s.cfg.ShardCount) == s.cfg.Shard
}

// mintID returns the next locally-owned inode number. Each shard only ever
// mints ids it owns, so ids are unique across the cluster without
// coordination. Caller holds ns exclusively.
func (s *Store) mintID() FileID {
	for !s.ownsID(s.nextID) {
		s.nextID++
	}
	id := s.nextID
	s.nextID++
	return id
}

// NSIntents returns the shard's live namespace intents (tests, fsck).
func (s *Store) NSIntents() []NSIntent {
	return s.nsIntents.snapshot()
}

// ---------------------------------------------------------------------------
// Dirent-edge primitives

// applyLink inserts the dirent (parent, name) → child and maintains the
// cross-shard edge maps. Caller holds ns exclusively.
func (s *Store) applyLink(parent FileID, name string, child FileID, typ FileType) {
	s.dirents[parent][name] = child
	if _, local := s.inodes[child]; local {
		delete(s.linkedRemote, child)
	} else {
		s.remote[child] = typ
	}
}

// applyUnlink deletes the dirent (parent, name) and maintains the
// cross-shard edge maps: a local inode losing its local dirent becomes
// linkedRemote (its entry is moving to another shard); a remote child's edge
// record is dropped. Caller holds ns exclusively.
func (s *Store) applyUnlink(parent FileID, name string) {
	child, ok := s.dirents[parent][name]
	if !ok {
		return
	}
	delete(s.dirents[parent], name)
	if _, local := s.inodes[child]; local {
		s.linkedRemote[child] = struct{}{}
	} else {
		delete(s.remote, child)
	}
}

// freeInode deletes inode id and returns the spans to free (extents inside
// delegations are handed back to the chunk's bookkeeping instead). Caller
// holds ns exclusively and frees the spans after dropping it.
func (s *Store) freeInode(id FileID) []alloc.Span {
	ino, ok := s.inodes[id]
	if !ok {
		return nil
	}
	s.intents.dropFile(id)
	s.fdelegs.drop(id)
	var freed []alloc.Span
	for _, e := range ino.extents {
		if d := s.findDelegationAny(e); d != nil {
			// See applyRemove: the chunk stays reserved, but the range
			// leaves `used` so delegation return or lease GC reclaims it.
			d.used = removeIval(d.used, e.VolOff, e.VolOff+e.Len)
			continue
		}
		freed = append(freed, alloc.Span{Dev: int(e.Dev), Off: e.VolOff, Len: e.Len})
	}
	delete(s.inodes, id)
	delete(s.dirents, id)
	delete(s.linkedRemote, id)
	return freed
}

// ---------------------------------------------------------------------------
// Cross-shard protocol operations (client-facing, journaled, idempotent)

// BeginCreateDetached mints a locally-owned inode for a child whose dirent
// will live on another shard — phase one of the cross-shard create. No dirent
// references the inode yet; the nsCreate intent records the remote (parent,
// name) the client is about to link it under. The client follows with
// LinkRemote on the parent's shard (the commit point) and NSCommit here; on
// a definitive link failure it rolls back with NSAbort, and a crash leaves
// the intent for ResolveNSIntents.
func (s *Store) BeginCreateDetached(at time.Time, parent FileID, name string, typ FileType) (attr Attr, durable Durable, err error) {
	if name == "" || name == "." || name == ".." {
		return Attr{}, nil, fmt.Errorf("%w: %q", ErrInvalidName, name)
	}
	s.ns.Lock()
	id := s.mintID()
	now := s.clk.Now()
	if _, err := s.nsIntents.publish(NSIntent{File: id, Kind: NSCreate, Type: typ, Parent: parent, Name: name}); err != nil {
		s.ns.Unlock()
		return Attr{}, nil, err
	}
	s.nsPrepares.Inc()
	s.applyCreateDetached(id, typ, now)
	attr = s.inodes[id].attr()
	durable = s.journalAppend(at, &Record{Type: RecNSIntent, NSKind: NSCreate, File: id, Parent: parent, Name: name, FType: typ, MTime: now})
	s.ns.Unlock()
	return attr, durable, nil
}

// applyCreateDetached materializes a detached inode. Caller holds ns
// exclusively.
func (s *Store) applyCreateDetached(id FileID, typ FileType, mtime time.Time) {
	s.inodes[id] = &inode{id: id, typ: typ, mtime: mtime, nlink: 1}
	if typ == TypeDir {
		s.dirents[id] = make(map[string]FileID)
	}
	if id >= s.nextID {
		s.nextID = id + 1
	}
}

// BeginLinkRemote inserts the dirent (parent, name) → child for an inode homed
// on another shard — the commit point of the cross-shard create. Exactly-once: a
// retry whose insert already committed succeeds without touching the
// namespace, even if a concurrent rename has since moved the entry —
// re-inserting would fork a second reference to the inode. An entry held by
// a different inode fails with ErrExists; a pending removal of parent or a
// rename reservation on the name fails with ErrNSConflict.
func (s *Store) BeginLinkRemote(at time.Time, parent FileID, name string, child FileID, typ FileType) (durable Durable, err error) {
	if name == "" || name == "." || name == ".." {
		return nil, fmt.Errorf("%w: %q", ErrInvalidName, name)
	}
	s.ns.Lock()
	if _, done := s.linkDone[child]; done {
		s.ns.Unlock()
		return noWait, nil // retry of a commit point that already executed
	}
	dir, ok := s.dirents[parent]
	if !ok {
		s.ns.Unlock()
		return nil, fmt.Errorf("%w: parent %d", ErrNotFound, parent)
	}
	if have, dup := dir[name]; dup {
		s.ns.Unlock()
		if have == child {
			return noWait, nil // retry of our own insert
		}
		return nil, fmt.Errorf("%w: %q", ErrExists, name)
	}
	if s.nsIntents.removePending(parent) {
		s.ns.Unlock()
		return nil, fmt.Errorf("%w: directory %d has a pending remove", ErrNSConflict, parent)
	}
	if s.nsIntents.reservedName(parent, name) {
		s.ns.Unlock()
		return nil, fmt.Errorf("%w: %q reserved by a pending rename", ErrNSConflict, name)
	}
	s.applyLink(parent, name, child, typ)
	s.linkDone[child] = struct{}{}
	durable = s.journalAppend(at, &Record{Type: RecLinkRemote, File: child, Parent: parent, Name: name, FType: typ})
	s.ns.Unlock()
	return durable, nil
}

// BeginUnlinkRemote deletes the dirent (parent, name) → child — the commit
// point of the cross-shard remove. Exactly-once: a retry whose delete already
// committed succeeds, but an entry this shard never unlinked — never
// inserted, or moved away by a concurrent rename (the remove intent lives on
// the child's home shard, which renames on this shard cannot see) — fails
// with ErrNotFound so the client aborts the remove instead of freeing an
// inode that still has a live dirent elsewhere. A live intent on the child (a
// concurrent cross-shard rename routed through this shard) fails with
// ErrNSConflict, keeping the remove probe unambiguous.
func (s *Store) BeginUnlinkRemote(at time.Time, parent FileID, name string, child FileID) (durable Durable, err error) {
	s.ns.Lock()
	if _, done := s.unlinkDone[child]; done {
		s.ns.Unlock()
		return noWait, nil // retry of a commit point that already executed
	}
	dir, ok := s.dirents[parent]
	if !ok {
		s.ns.Unlock()
		return nil, fmt.Errorf("%w: parent %d", ErrNotFound, parent)
	}
	if have, ok := dir[name]; !ok || have != child {
		s.ns.Unlock()
		return nil, fmt.Errorf("%w: entry %q → %d", ErrNotFound, name, child)
	}
	if s.nsIntents.has(child) {
		s.ns.Unlock()
		return nil, fmt.Errorf("%w: inode %d is under a namespace intent", ErrNSConflict, child)
	}
	s.applyUnlink(parent, name)
	s.unlinkDone[child] = struct{}{}
	durable = s.journalAppend(at, &Record{Type: RecUnlinkRemote, File: child, Parent: parent, Name: name})
	s.ns.Unlock()
	return durable, nil
}

// BeginNSPrepare publishes a namespace intent for a cross-shard remove or rename
// — phase one on the shard the kind addresses (NSRemove: the inode's home;
// NSRenameSrc: the source parent's shard; NSRenameDst: the destination
// parent's shard, reserving the destination name). parent/name locate the
// inode's current dirent; dstParent/dstName the rename destination; typ the
// inode's type (NSRenameDst, for the edge maps at roll-forward). Idempotent
// for a byte-identical retry.
//
// It acts on behalf of a delegation owner ("" for none). On the inode's home
// shard it fails with *DelegHeld, having published nothing, while another
// owner holds the delegation a cross-shard remove or rename is about to
// invalidate: the saga recalls before it can reach its commit point.
func (s *Store) BeginNSPrepare(at time.Time, owner string, file FileID, kind NSIntentKind, typ FileType, parent FileID, name string, dstParent FileID, dstName string) (durable Durable, err error) {
	in := NSIntent{File: file, Kind: kind, Type: typ, Parent: parent, Name: name, DstParent: dstParent, DstName: dstName}
	s.ns.Lock()
	switch kind {
	case NSRemove:
		ino, ok := s.inodes[file]
		if !ok {
			s.ns.Unlock()
			return nil, fmt.Errorf("%w: inode %d not homed here", ErrWrongShard, file)
		}
		if ino.typ == TypeDir && len(s.dirents[file]) > 0 {
			s.ns.Unlock()
			return nil, fmt.Errorf("%w: inode %d", ErrNotEmpty, file)
		}
	case NSRenameSrc:
		if id, ok := s.dirents[parent][name]; !ok || id != file {
			s.ns.Unlock()
			return nil, fmt.Errorf("%w: %q", ErrNotFound, name)
		}
	case NSRenameDst:
		if dstName == "" || dstName == "." || dstName == ".." {
			s.ns.Unlock()
			return nil, fmt.Errorf("%w: %q", ErrInvalidName, dstName)
		}
		dir, ok := s.dirents[dstParent]
		if !ok {
			s.ns.Unlock()
			return nil, fmt.Errorf("%w: parent %d", ErrNotFound, dstParent)
		}
		if _, dup := dir[dstName]; dup {
			s.ns.Unlock()
			return nil, fmt.Errorf("%w: %q", ErrExists, dstName)
		}
		if s.nsIntents.removePending(dstParent) {
			s.ns.Unlock()
			return nil, fmt.Errorf("%w: directory %d has a pending remove", ErrNSConflict, dstParent)
		}
	default:
		s.ns.Unlock()
		return nil, fmt.Errorf("%w: NSPrepare kind %s", ErrNSConflict, kind)
	}
	if ino, local := s.inodes[file]; local {
		if held := s.delegConflict(owner, ino); held != nil {
			s.ns.Unlock()
			return nil, held
		}
	}
	published, err := s.nsIntents.publish(in)
	if err != nil {
		s.ns.Unlock()
		return nil, err
	}
	if !published {
		s.ns.Unlock()
		return noWait, nil
	}
	s.nsPrepares.Inc()
	durable = s.journalAppend(at, &Record{
		Type: RecNSIntent, NSKind: kind, File: file, FType: typ,
		Parent: parent, Name: name, DstParent: dstParent, DstName: dstName,
	})
	s.ns.Unlock()
	return durable, nil
}

// BeginNSCommit resolves the live intent on file forward: create graduates the
// detached inode to linkedRemote; remove deletes the inode and frees its
// space; renameSrc deletes the source dirent (the rename's commit point);
// renameDst inserts the destination dirent and releases the reservation.
// Idempotent: no live intent of the given kind means a previous attempt (or
// resolution) already ran, and succeeds without journaling.
func (s *Store) BeginNSCommit(at time.Time, file FileID, kind NSIntentKind) (durable Durable, err error) {
	s.ns.Lock()
	in, ok := s.nsIntents.get(file)
	if !ok || in.Kind != kind {
		s.ns.Unlock()
		return noWait, nil
	}
	freed := s.applyNSCommit(in)
	s.nsCommits.Inc()
	durable = s.journalAppend(at, &Record{Type: RecNSCommit, NSKind: kind, File: file})
	s.ns.Unlock()
	for _, sp := range freed {
		_ = s.cfg.AGs.FreeSpan(sp)
	}
	return durable, nil
}

// applyNSCommit mutates state for a committed intent. Caller holds ns
// exclusively and frees the returned spans after dropping it.
func (s *Store) applyNSCommit(in NSIntent) []alloc.Span {
	s.nsIntents.drop(in.File)
	switch in.Kind {
	case NSCreate:
		if _, ok := s.inodes[in.File]; ok {
			s.linkedRemote[in.File] = struct{}{}
		}
	case NSRemove:
		return s.freeInode(in.File)
	case NSRenameSrc:
		if id, ok := s.dirents[in.Parent][in.Name]; ok && id == in.File {
			s.applyUnlink(in.Parent, in.Name)
		}
	case NSRenameDst:
		if _, ok := s.dirents[in.DstParent]; ok {
			s.applyLink(in.DstParent, in.DstName, in.File, in.Type)
		}
	}
	return nil
}

// BeginNSAbort resolves the live intent on file backward: create deletes the
// detached inode and frees its space; the other kinds just drop the intent
// (and any name reservation), leaving the namespace untouched. Idempotent.
func (s *Store) BeginNSAbort(at time.Time, file FileID, kind NSIntentKind) (durable Durable, err error) {
	s.ns.Lock()
	in, ok := s.nsIntents.get(file)
	if !ok || in.Kind != kind {
		s.ns.Unlock()
		return noWait, nil
	}
	freed := s.applyNSAbort(in)
	s.nsAborts.Inc()
	durable = s.journalAppend(at, &Record{Type: RecNSAbort, NSKind: kind, File: file})
	s.ns.Unlock()
	for _, sp := range freed {
		_ = s.cfg.AGs.FreeSpan(sp)
	}
	return durable, nil
}

// applyNSAbort mutates state for an aborted intent. Caller holds ns
// exclusively and frees the returned spans after dropping it.
func (s *Store) applyNSAbort(in NSIntent) []alloc.Span {
	s.nsIntents.drop(in.File)
	if in.Kind == NSCreate {
		return s.freeInode(in.File)
	}
	return nil
}

// ---------------------------------------------------------------------------
// Quiesced resolution

// ResolveNSIntents drives every live cross-shard namespace intent on a
// QUIESCED cluster (no in-flight clients — end of a chaos run, or recovery
// of all shards) to its unique consistent outcome. stores must be indexed by
// shard. Renames resolve first: a live renameSrc intent means the commit
// point (source-dirent delete) never happened, so the rename aborts; a live
// renameDst intent probes the source dirent — still present means abort,
// gone means the commit point passed and the destination insert rolls
// forward. Creates and removes then probe globally for any dirent
// referencing the inode (a concurrent rename may have moved it): a create
// with a surviving dirent graduates, without one it aborts; a remove is the
// mirror image. Every resolution step goes through the journaled idempotent
// NSCommit/NSAbort path, so a crash during resolution is itself recoverable.
func ResolveNSIntents(stores []*Store) error {
	n := len(stores)
	probe := func(parent FileID, name string, file FileID) bool {
		ps := stores[ShardOf(parent, n)]
		ps.ns.RLock()
		id, ok := ps.dirents[parent][name]
		ps.ns.RUnlock()
		return ok && id == file
	}
	anyDirent := func(file FileID) bool {
		for _, ps := range stores {
			ps.ns.RLock()
			for _, ents := range ps.dirents {
				for _, cid := range ents {
					if cid == file {
						ps.ns.RUnlock()
						return true
					}
				}
			}
			ps.ns.RUnlock()
		}
		return false
	}
	resolve := func(pass func(in NSIntent) (commit, skip bool)) error {
		for _, s := range stores {
			for _, in := range s.nsIntents.snapshot() {
				commit, skip := pass(in)
				if skip {
					continue
				}
				var err error
				if commit {
					err = settle(s.BeginNSCommit(time.Time{}, in.File, in.Kind))
				} else {
					err = settle(s.BeginNSAbort(time.Time{}, in.File, in.Kind))
				}
				if err != nil {
					return err
				}
			}
		}
		return nil
	}
	// Pass 1: renames (settles where every moved dirent ends up).
	if err := resolve(func(in NSIntent) (bool, bool) {
		switch in.Kind {
		case NSRenameSrc:
			return false, false
		case NSRenameDst:
			return !probe(in.Parent, in.Name, in.File), false
		}
		return false, true
	}); err != nil {
		return err
	}
	// Pass 2: creates. Pass 3: removes (after creates, so a rolled-back
	// create's dirent cannot keep an unrelated remove alive — ids are unique,
	// so the passes are in fact independent; the order just keeps the scan
	// deterministic).
	if err := resolve(func(in NSIntent) (bool, bool) {
		return anyDirent(in.File), in.Kind != NSCreate
	}); err != nil {
		return err
	}
	return resolve(func(in NSIntent) (bool, bool) {
		return !anyDirent(in.File), in.Kind != NSRemove
	})
}
