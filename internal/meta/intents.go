package meta

import (
	"fmt"
	"sync"
)

// LayoutFlags selects the behaviour of a layout lookup. It travels as one
// byte on the wire.
type LayoutFlags uint8

// LayoutWrite declares write intent: the MDS allocates extents for the
// uncovered sub-ranges and publishes them in the intent table. Without it a
// lookup returns committed extents only. Bit 1 once asked for other
// clients' uncommitted extents; it is reserved and never reused, and the MDS
// ignores it like every other bit.
const LayoutWrite LayoutFlags = 1 << 0

// Has reports whether every bit in bits is set.
func (f LayoutFlags) Has(bits LayoutFlags) bool { return f&bits == bits }

// intent is one published write intent: an uncommitted extent of a file,
// attributed to the client that allocated it.
type intent struct {
	owner string
	ext   Extent
}

// intentTable indexes every live write intent — uncommitted extents handed
// out by AllocLayout — by file and by owner. It is what makes rollback
// (lease expiry, client crash, recovery GC) a direct lookup instead of a
// scan over every inode.
//
// Lifecycle: publish (AllocLayout / RecAlloc replay) → either graduate
// (commit flips the extent to committed) or roll back (ClientGone removes
// the owner's intents and frees the space; Remove drops a dead file's).
//
// Lock hierarchy: mu ranks between the inode stripe locks and delegation.mu
// (namespace → stripe → intent table → delegation → journal reservation).
// It is always taken while holding at least the shared namespace lock and is
// never held across a blocking operation.
type intentTable struct {
	mu      sync.Mutex
	files   map[FileID][]intent
	byOwner map[string]map[FileID]struct{}
}

func newIntentTable() *intentTable {
	return &intentTable{
		files:   make(map[FileID][]intent),
		byOwner: make(map[string]map[FileID]struct{}),
	}
}

// sameExtent matches on identity — (FileOff, Len, Dev, VolOff) — ignoring
// State, so a commit's committed copy matches the published uncommitted one.
func sameExtent(a, b Extent) bool {
	return a.FileOff == b.FileOff && a.Len == b.Len && a.Dev == b.Dev && a.VolOff == b.VolOff
}

// publish records owner's freshly allocated extents for id. An extent that
// duplicates a live intent of a different owner is rejected with a wrapped
// ErrIntentConflict before anything is recorded: the allocator must never
// hand the same space to two clients, so a collision here means accounting
// corruption and the allocation must not proceed.
func (t *intentTable) publish(id FileID, owner string, exts []Extent) error {
	if len(exts) == 0 {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, e := range exts {
		for _, in := range t.files[id] {
			if in.owner != owner && sameExtent(in.ext, e) {
				return fmt.Errorf("%w: file %d extent [%d,+%d) on dev %d held by %q, republished by %q",
					ErrIntentConflict, id, e.FileOff, e.Len, e.Dev, in.owner, owner)
			}
		}
	}
	for _, e := range exts {
		t.files[id] = append(t.files[id], intent{owner: owner, ext: e})
	}
	set := t.byOwner[owner]
	if set == nil {
		set = make(map[FileID]struct{})
		t.byOwner[owner] = set
	}
	set[id] = struct{}{}
	return nil
}

// graduate removes the intent matching e (a commit flipped it to committed).
// Unknown extents — delegation-carved space the table never saw — are a
// no-op.
func (t *intentTable) graduate(id FileID, e Extent) {
	t.mu.Lock()
	defer t.mu.Unlock()
	list := t.files[id]
	for i, in := range list {
		if !sameExtent(in.ext, e) {
			continue
		}
		list[i] = list[len(list)-1]
		list = list[:len(list)-1]
		if len(list) == 0 {
			delete(t.files, id)
		} else {
			t.files[id] = list
		}
		t.dropOwnerRefLocked(in.owner, id, list)
		return
	}
}

// dropOwnerRefLocked clears owner's per-file index entry once no intent of
// theirs remains on the file. Caller holds t.mu.
func (t *intentTable) dropOwnerRefLocked(owner string, id FileID, remaining []intent) {
	for _, in := range remaining {
		if in.owner == owner {
			return
		}
	}
	if set := t.byOwner[owner]; set != nil {
		delete(set, id)
		if len(set) == 0 {
			delete(t.byOwner, owner)
		}
	}
}

// rollbackOwner removes every intent owner holds and returns them per file.
func (t *intentTable) rollbackOwner(owner string) map[FileID][]Extent {
	t.mu.Lock()
	defer t.mu.Unlock()
	set := t.byOwner[owner]
	if len(set) == 0 {
		delete(t.byOwner, owner)
		return nil
	}
	out := make(map[FileID][]Extent, len(set))
	for id := range set {
		kept := t.files[id][:0:0]
		for _, in := range t.files[id] {
			if in.owner == owner {
				out[id] = append(out[id], in.ext)
				continue
			}
			kept = append(kept, in)
		}
		if len(kept) == 0 {
			delete(t.files, id)
		} else {
			t.files[id] = kept
		}
	}
	delete(t.byOwner, owner)
	return out
}

// dropFile discards all intents of a removed file.
func (t *intentTable) dropFile(id FileID) {
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, in := range t.files[id] {
		t.dropOwnerRefLocked(in.owner, id, nil)
	}
	delete(t.files, id)
}

// ownerOf returns who published the intent matching e on id.
func (t *intentTable) ownerOf(id FileID, e Extent) (string, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, in := range t.files[id] {
		if sameExtent(in.ext, e) {
			return in.owner, true
		}
	}
	return "", false
}

// owners lists every client holding at least one intent (recovery GC).
func (t *intentTable) owners() []string {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]string, 0, len(t.byOwner))
	for o := range t.byOwner {
		out = append(out, o)
	}
	return out
}
