package meta

import (
	"fmt"
	"time"
)

// BeginRename moves the entry srcName under srcParent to dstName under
// dstParent, on behalf of a delegation owner ("" for none). The destination
// must not exist (no implicit overwrite: a caller that wants POSIX semantics
// removes the destination first, making the data-freeing explicit). Renaming
// a directory into its own subtree is rejected. It fails with *DelegHeld,
// having changed nothing, while another owner holds the moved file's
// delegation — or, for a directory, any delegation at all.
func (s *Store) BeginRename(at time.Time, owner string, srcParent FileID, srcName string, dstParent FileID, dstName string) (durable Durable, err error) {
	if dstName == "" || dstName == "." || dstName == ".." {
		return nil, fmt.Errorf("%w: %q", ErrInvalidName, dstName)
	}
	s.ns.Lock()
	src, ok := s.dirents[srcParent]
	if !ok {
		s.ns.Unlock()
		return nil, fmt.Errorf("%w: parent %d", ErrNotFound, srcParent)
	}
	id, ok := src[srcName]
	if !ok {
		s.ns.Unlock()
		return nil, fmt.Errorf("%w: %q", ErrNotFound, srcName)
	}
	dst, ok := s.dirents[dstParent]
	if !ok {
		s.ns.Unlock()
		return nil, fmt.Errorf("%w: parent %d", ErrNotFound, dstParent)
	}
	if _, dup := dst[dstName]; dup {
		s.ns.Unlock()
		return nil, fmt.Errorf("%w: %q", ErrExists, dstName)
	}
	if s.nsIntents.has(id) {
		s.ns.Unlock()
		return nil, fmt.Errorf("%w: inode %d is under a namespace intent", ErrNSConflict, id)
	}
	if s.nsIntents.removePending(dstParent) {
		s.ns.Unlock()
		return nil, fmt.Errorf("%w: directory %d has a pending remove", ErrNSConflict, dstParent)
	}
	if s.nsIntents.reservedName(dstParent, dstName) {
		s.ns.Unlock()
		return nil, fmt.Errorf("%w: %q reserved by a pending rename", ErrNSConflict, dstName)
	}
	ino, local := s.inodes[id]
	if !local {
		// A remote-homed child's dirent may move between two local
		// directories, but only for files: a directory's subtree lives on
		// its home shard, where this store cannot run the loop check.
		if s.remote[id] == TypeDir {
			s.ns.Unlock()
			return nil, fmt.Errorf("%w: directory %d", ErrWrongShard, id)
		}
	}
	// A directory must not become its own ancestor.
	if local && ino.typ == TypeDir {
		for cur := dstParent; cur != RootID; {
			if cur == id {
				s.ns.Unlock()
				return nil, fmt.Errorf("%w: cannot move %q into its own subtree", ErrLoop, srcName)
			}
			parent, ok := s.parentOf(cur)
			if !ok {
				break
			}
			cur = parent
		}
	}
	// A remote-homed child has no delegation here: it lives with the inode,
	// and its holders look the name up on this shard every time.
	if local {
		if held := s.delegConflict(owner, ino); held != nil {
			s.ns.Unlock()
			return nil, held
		}
	}
	s.applyRename(srcParent, srcName, dstParent, dstName, id)
	durable = s.journalAppend(at, &Record{
		Type: RecRename, File: id,
		Parent: srcParent, Name: srcName,
		DstParent: dstParent, DstName: dstName,
	})
	s.ns.Unlock()
	return durable, nil
}

// applyRename mutates the namespace. Caller holds ns exclusively.
func (s *Store) applyRename(srcParent FileID, srcName string, dstParent FileID, dstName string, id FileID) {
	delete(s.dirents[srcParent], srcName)
	s.dirents[dstParent][dstName] = id
}

// parentOf finds the directory containing inode id (linear scan; renames are
// rare). Caller holds ns exclusively.
func (s *Store) parentOf(id FileID) (FileID, bool) {
	for dir, ents := range s.dirents {
		for _, cid := range ents {
			if cid == id {
				return dir, true
			}
		}
	}
	return 0, false
}
