package meta

import "sort"

// SetJournal atomically switches the store to append to j — the final step
// of a checkpoint (LogSet.Checkpoint returns the new journal).
func (s *Store) SetJournal(j *Journal) {
	s.ns.Lock()
	s.cfg.Journal = j
	s.ns.Unlock()
}

// findDelegationAny returns the delegation (any owner) containing extent e.
// Caller holds ns exclusively.
func (s *Store) findDelegationAny(e Extent) *delegation {
	for _, ds := range s.delegations {
		for _, d := range ds {
			if d.span.Dev == int(e.Dev) && e.VolOff >= d.span.Off && e.VolOff+e.Len <= d.span.End() {
				return d
			}
		}
	}
	return nil
}

// Snapshot serializes the entire store state as a record stream that, when
// replayed into a fresh store, reproduces it exactly: namespace creates
// (parents before children), delegation grants, space reservations, and
// commits. LogSet.Checkpoint writes this stream as the new compacted log.
//
// A snapshot alone is only safe to checkpoint if no mutations race the flip;
// use CheckpointTo for the atomic end-to-end operation.
func (s *Store) Snapshot() []*Record {
	s.ns.Lock()
	defer s.ns.Unlock()
	return s.snapshotLocked()
}

// CheckpointTo atomically compacts the store's log: it snapshots the state,
// writes it into ls's inactive region, flips the superblock, and switches
// the store's journal — all while holding the store lock, so no mutation can
// slip between the snapshot and the flip and be lost. A store whose journal
// has failed is not checkpointed: its state holds mutations that were
// refused, and only a restart's replay may restart the log.
func (s *Store) CheckpointTo(ls *LogSet) error {
	s.ns.Lock()
	defer s.ns.Unlock()
	if err := s.cfg.Journal.Err(); err != nil {
		return err
	}
	j, err := ls.Checkpoint(s.snapshotLocked())
	if err != nil {
		return err
	}
	s.cfg.Journal = j
	return nil
}

// snapshotLocked builds the record stream. Caller holds ns exclusively.
func (s *Store) snapshotLocked() []*Record {
	var recs []*Record

	// Extra namespace roots beyond RootID (sharded stores): local inodes
	// whose dirent lives on another shard, and detached inodes under a live
	// NSCreate intent. Both rematerialize through the RecNSIntent replay
	// path — graduated ones followed immediately by their RecNSCommit.
	intents := s.nsIntents.snapshot()
	detached := map[FileID]bool{}
	for _, in := range intents {
		if in.Kind == NSCreate {
			detached[in.File] = true
			ino := s.inodes[in.File]
			recs = append(recs, &Record{
				Type: RecNSIntent, NSKind: NSCreate, File: in.File,
				Parent: in.Parent, Name: in.Name, FType: in.Type, MTime: ino.mtime,
			})
		}
	}
	linked := make([]FileID, 0, len(s.linkedRemote))
	for id := range s.linkedRemote {
		linked = append(linked, id)
	}
	sort.Slice(linked, func(i, j int) bool { return linked[i] < linked[j] })
	for _, id := range linked {
		ino := s.inodes[id]
		recs = append(recs,
			&Record{Type: RecNSIntent, NSKind: NSCreate, File: id, FType: ino.typ, MTime: ino.mtime},
			&Record{Type: RecNSCommit, NSKind: NSCreate, File: id})
	}

	// Namespace, breadth-first with sorted names for determinism. Remote-
	// homed children re-link through RecLinkRemote and are not traversed
	// (their inodes snapshot on their home shard).
	var files []FileID
	var queue []FileID
	if _, ok := s.inodes[RootID]; ok {
		queue = append(queue, RootID)
	}
	for _, id := range linked {
		if s.inodes[id].typ == TypeDir {
			queue = append(queue, id)
		} else {
			files = append(files, id)
		}
	}
	for _, in := range intents {
		if in.Kind != NSCreate {
			continue
		}
		if s.inodes[in.File].typ == TypeDir {
			queue = append(queue, in.File)
		} else {
			files = append(files, in.File)
		}
	}
	for len(queue) > 0 {
		dir := queue[0]
		queue = queue[1:]
		names := make([]string, 0, len(s.dirents[dir]))
		for name := range s.dirents[dir] {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			cid := s.dirents[dir][name]
			ino, local := s.inodes[cid]
			if !local {
				recs = append(recs, &Record{Type: RecLinkRemote, File: cid, Parent: dir, Name: name, FType: s.remote[cid]})
				continue
			}
			recs = append(recs, &Record{Type: RecCreate, File: cid, Parent: dir, Name: name, FType: ino.typ, MTime: ino.mtime})
			if ino.typ == TypeDir {
				queue = append(queue, cid)
			} else {
				files = append(files, cid)
			}
		}
	}

	// Remaining live namespace intents (remove/rename) re-publish after the
	// namespace exists, mirroring their original journal order.
	for _, in := range intents {
		if in.Kind == NSCreate {
			continue
		}
		recs = append(recs, &Record{
			Type: RecNSIntent, NSKind: in.Kind, File: in.File, FType: in.Type,
			Parent: in.Parent, Name: in.Name, DstParent: in.DstParent, DstName: in.DstName,
		})
	}

	// Commit-point markers (see linkDone/unlinkDone): children whose
	// LinkRemote/UnlinkRemote executed here. Live remote children re-enter
	// linkDone through the traversal's RecLinkRemote records above; members
	// whose entry has since moved or died need a bare marker (no parent, so
	// replay only rebuilds the set). Every unlinkDone member is bare — its
	// entry is gone by definition.
	markers := make([]FileID, 0, len(s.linkDone))
	for id := range s.linkDone {
		if _, live := s.remote[id]; !live {
			markers = append(markers, id)
		}
	}
	sort.Slice(markers, func(i, j int) bool { return markers[i] < markers[j] })
	for _, id := range markers {
		recs = append(recs, &Record{Type: RecLinkRemote, File: id})
	}
	markers = markers[:0]
	for id := range s.unlinkDone {
		markers = append(markers, id)
	}
	sort.Slice(markers, func(i, j int) bool { return markers[i] < markers[j] })
	for _, id := range markers {
		recs = append(recs, &Record{Type: RecUnlinkRemote, File: id})
	}

	// Delegations, sorted by owner.
	owners := make([]string, 0, len(s.delegations))
	for o := range s.delegations {
		owners = append(owners, o)
	}
	sort.Strings(owners)
	for _, o := range owners {
		for _, d := range s.delegations[o] {
			recs = append(recs, &Record{
				Type: RecDelegate, Owner: o,
				SpanDev: uint32(d.span.Dev), SpanOff: d.span.Off, SpanLen: d.span.Len,
			})
		}
	}

	// Per-file space: reservations (RecAlloc) for extents outside
	// delegations, then commits. Extents inside a delegation are covered
	// by its chunk reservation and are re-committed under the delegation
	// owner so the `used` bookkeeping is rebuilt.
	for _, fid := range files {
		ino := s.inodes[fid]
		allocByOwner := map[string][]Extent{}
		commitByOwner := map[string][]Extent{}
		var flip []Extent
		for _, e := range ino.extents {
			if d := s.findDelegationAny(e); d != nil {
				if e.State == StateCommitted {
					commitByOwner[d.owner] = append(commitByOwner[d.owner], e)
				}
				// An uncommitted extent inside a delegation cannot
				// exist at the MDS (clients allocate those locally;
				// the MDS first hears of them at commit time).
				continue
			}
			owner := ""
			if e.State == StateUncommitted {
				owner, _ = s.intents.ownerOf(fid, e)
			}
			ae := e
			ae.State = StateUncommitted
			allocByOwner[owner] = append(allocByOwner[owner], ae)
			if e.State == StateCommitted {
				flip = append(flip, e)
			}
		}
		for _, owner := range sortedKeys(allocByOwner) {
			recs = append(recs, &Record{Type: RecAlloc, File: fid, Owner: owner, Extents: allocByOwner[owner]})
		}
		// Size and mtime ride the flip commit (emitted even when empty).
		recs = append(recs, &Record{Type: RecCommit, File: fid, Size: ino.size, MTime: ino.mtime, Extents: flip})
		for _, owner := range sortedKeys(commitByOwner) {
			recs = append(recs, &Record{Type: RecCommit, File: fid, Owner: owner, Size: ino.size, MTime: ino.mtime, Extents: commitByOwner[owner]})
		}
	}
	return recs
}

func sortedKeys(m map[string][]Extent) []string {
	ks := make([]string, 0, len(m))
	for k := range m {
		ks = append(ks, k)
	}
	sort.Strings(ks)
	return ks
}
