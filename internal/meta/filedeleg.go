package meta

import (
	"fmt"
	"sync"
	"time"

	"redbud/internal/clock"
	"redbud/internal/stats"
)

// This file implements exclusive per-file delegations: the MDS promises one
// client (the holder) that nobody else will change what Lookup(parent, leaf) +
// GetAttr return for a regular file without asking first, so the holder may
// serve Open and Stat of that file from its own memory with no RPC.
//
// State machine of one inode:
//
//	(none) --grant--> held(A) --conflicting mutation by B--> recalling(A)
//	recalling(A) --A acknowledged, or A's lease lapsed--> recalled
//
// and "recalled" is terminal for this MDS incarnation: the inode is never
// granted again, so two clients that both work on one file stop paying for
// recalls after the first. A grant is made by the reply that creates or opens
// the file (Store.BeginCreate / LookupAs / GetAttrAs) when nobody holds it; the
// holder's own mutations never recall it. A mutation by anyone else — a
// commit, remove or rename of the inode, the home-shard leg of a cross-shard
// saga — is refused with *DelegHeld after the store has issued the recall
// under the very lock that would have ordered the mutation; the caller waits
// (FileDelegs.Await, no store lock held) and runs the mutation again. A
// foreign rename or remove of a directory recalls everything every other
// owner holds on the shard, because a holder's cache is keyed by path.
//
// The holder only trusts a delegation while its lease is live. The lease is
// per owner per shard and needs no traffic of its own: the client renews it to
// (send time + DelegTerm) on every attribute-bearing reply, and the MDS
// mirrors it from the request's arrival, which is never earlier. Every such
// reply also carries the owner's unacknowledged recalls (Pending), so a reply
// that renews the lease cannot be one that hides a recall; the owner echoes
// the sequence number on its next request (Arrive). A recall therefore ends
// at the latest when the lease the holder had when it was issued runs out —
// a dead or partitioned holder costs the mutation at most DelegTerm, and so
// does a daemon pool with every thread parked in Await.
//
// None of this is journaled or snapshotted. A recovered store starts with an
// empty table, and the restarted MDS (BeginGrace) makes conflicting mutations
// wait out one DelegTerm, by which time every lease its predecessor backed has
// run out.

// DelegTerm is the delegation lease term: how long after its last
// attribute-bearing request a client may still serve opens from its cache,
// and so the longest a conflicting mutation can be kept waiting by a holder
// that does not answer (and a restarted MDS's grace period). It is the one
// tunable of the mechanism, and a constant.
//
// What it has to cover is the gap between two renewing replies — creates and
// the opens that miss — of one client. Measured on the repository benchmark
// (seed 7, both clients pooled, p50 / p99 of the gaps of a 2 s window):
// xcdn32k-dcsd 0.8 / 6 ms, xcdn32k-dc 0.4 / 7 ms, varmail-dc 2.8 / 21 ms,
// xcdn32k-sync 6 / 110 ms. The sync workload sets the floor: its eight
// threads per client spend ~120 ms inside each create and now and then all do
// so at once. At 100 ms that lapsed the lease under 1 read in 20 there
// (30 of 32 re-opens per window served from memory, read_p95_ms 1.5); at
// 200 ms every one of them hits (32 of 32, read_p95_ms 0.05), so 200 ms it is.
// The other side of the trade is what a dead holder costs: one DelegTerm, once
// per file — a recalled file is never delegated again.
const DelegTerm = 200 * time.Millisecond

// maxPendingRecalls bounds the recall list one reply carries; a longer backlog
// (a holder that has been away for a while) collapses into "everything".
const maxPendingRecalls = 64

// RecallAll is the recall-list entry that stands for every delegation the
// owner holds on this shard, and its dentry cache with them (no inode has
// number 0).
const RecallAll FileID = 0

// DelegHeld is the refusal of a mutation that found other owners' file
// delegations in its way. The recalls are already issued; the caller awaits
// them with no store lock held and then repeats the mutation.
type DelegHeld struct {
	Recalls []*Recall
	// Dir marks a directory rename or remove, which recalls everything and
	// must keep new grants out (Freeze) until it has been applied.
	Dir bool
}

func (e *DelegHeld) Error() string {
	return fmt.Sprintf("meta: %d file delegation(s) being recalled", len(e.Recalls))
}

// Recall is a set of one owner's delegations on their way back — one inode,
// or everything the owner held when a directory moved. It ends when the holder
// acknowledges or when the lease the holder had at issue time runs out.
type Recall struct {
	ids      []FileID
	deadline time.Time
	done     chan struct{} // closed once the recall has ended
}

func (r *Recall) ended() bool {
	select {
	case <-r.done:
		return true
	default:
		return false
	}
}

// fileDeleg is one inode's entry in the holder table.
type fileDeleg struct {
	owner  string
	recall *Recall // nil while the grant stands
}

// delegOwner is what the MDS keeps per delegation owner.
type delegOwner struct {
	// lease mirrors the client's: last attribute-bearing request + DelegTerm.
	lease time.Time
	// held are the inodes granted to the owner and not yet under recall.
	held map[FileID]struct{}
	// seq numbers the recalls issued to the owner; acked is the newest one it
	// has echoed; pending are those in between, oldest first.
	seq, acked uint64
	pending    []pendingRecall
}

// pendingRecall is one recall the owner has not acknowledged. id is what the
// owner is told to drop: the inode, or RecallAll.
type pendingRecall struct {
	seq    uint64
	id     FileID
	recall *Recall
}

// FileDelegs is a store's file-delegation table: who holds which inode, which
// inodes may never be granted again, and each owner's lease and recall
// backlog. It lives beside the space-delegation owner table so that
// ClientGone revokes both.
//
// Lock hierarchy: mu ranks between the ns-intent table and delegation.mu
// (namespace → stripe → intent → ns-intent → file delegation → delegation →
// journal). Grants and conflict checks take it under the store lock that
// orders the operation they belong to; it is never held across a blocking
// operation — Await blocks with nothing held.
type FileDelegs struct {
	clk clock.Clock

	mu       sync.Mutex
	holders  map[FileID]*fileDeleg
	recalled map[FileID]struct{}
	owners   map[string]*delegOwner
	frozen   int     // directory mutations between their recall and their apply
	grace    *Recall // a restarted MDS's grace period, until it has run out

	grants, recalls, lapses stats.Counter
	waits                   *stats.Histogram
}

func newFileDelegs(clk clock.Clock) *FileDelegs {
	return &FileDelegs{
		clk:      clk,
		holders:  make(map[FileID]*fileDeleg),
		recalled: make(map[FileID]struct{}),
		owners:   make(map[string]*delegOwner),
		waits:    stats.NewLatencyHistogram(),
	}
}

// FileDelegs exposes the store's file-delegation table to the MDS.
func (s *Store) FileDelegs() *FileDelegs { return s.fdelegs }

// DelegStats is a snapshot of the table's counters.
type DelegStats struct {
	Grants  int64 // delegations granted
	Recalls int64 // delegations recalled
	Lapses  int64 // of those, how many ended by lease lapse, not acknowledgement
	Held    int64 // inodes currently delegated (recalls in progress included)
}

// Stats snapshots the counters.
func (t *FileDelegs) Stats() DelegStats {
	t.mu.Lock()
	held := int64(len(t.holders))
	t.mu.Unlock()
	return DelegStats{Grants: t.grants.Load(), Recalls: t.recalls.Load(), Lapses: t.lapses.Load(), Held: held}
}

// RecallWaits is the histogram of how long mutations waited for recalls
// (seconds).
func (t *FileDelegs) RecallWaits() *stats.Histogram { return t.waits }

// BeginGrace starts a restarted MDS's grace period: the table is empty, but
// clients may still be serving opens under leases the previous incarnation
// backed, so until one DelegTerm has passed only files created from now on
// are granted and every other mutation waits.
func (t *FileDelegs) BeginGrace() {
	t.mu.Lock()
	t.grace = &Recall{deadline: t.clk.Now().Add(DelegTerm), done: make(chan struct{})}
	t.mu.Unlock()
}

// ownerLocked finds or creates owner's record. Caller holds mu.
func (t *FileDelegs) ownerLocked(owner string) *delegOwner {
	o := t.owners[owner]
	if o == nil {
		o = &delegOwner{held: make(map[FileID]struct{})}
		t.owners[owner] = o
	}
	return o
}

// Arrive records one attribute-bearing request of owner: its lease is
// mirrored from now, and every recall up to ack is acknowledged.
func (t *FileDelegs) Arrive(owner string, ack uint64) {
	now := t.clk.Now()
	t.mu.Lock()
	o := t.ownerLocked(owner)
	o.lease = now.Add(DelegTerm)
	t.ackLocked(o, ack)
	t.mu.Unlock()
}

// Ack acknowledges every recall issued to owner up to ack without renewing
// anything: the request is not one an attribute-bearing reply follows.
func (t *FileDelegs) Ack(owner string, ack uint64) {
	t.mu.Lock()
	if o := t.owners[owner]; o != nil {
		t.ackLocked(o, ack)
	}
	t.mu.Unlock()
}

// ackLocked ends every pending recall of o up to ack. A number beyond what
// was ever issued (a leftover of an earlier session) acknowledges nothing.
func (t *FileDelegs) ackLocked(o *delegOwner, ack uint64) {
	if ack <= o.acked || ack > o.seq {
		return
	}
	o.acked = ack
	n := 0
	for _, p := range o.pending {
		if p.seq > ack {
			break
		}
		t.endLocked(p.recall)
		n++
	}
	o.pending = o.pending[n:]
}

// Pending returns what rides on an attribute-bearing reply to owner: the
// sequence number of the newest recall issued to it and every inode it has
// not acknowledged dropping (nil when there is none).
func (t *FileDelegs) Pending(owner string) (seq uint64, ids []FileID) {
	t.mu.Lock()
	defer t.mu.Unlock()
	o := t.owners[owner]
	if o == nil {
		return 0, nil
	}
	if len(o.pending) > maxPendingRecalls {
		return o.seq, []FileID{RecallAll}
	}
	for _, p := range o.pending {
		ids = append(ids, p.id)
	}
	return o.seq, ids
}

// grant makes owner the holder of regular file id if nobody else is, the
// inode was never recalled, and no directory mutation or grace period keeps
// grants out (a file created just now is exempt from the grace period: no
// earlier incarnation can have delegated it). Granting to the current holder
// again is how a client that lost its state, or let its lease lapse, gets
// back in step. Called under the store lock that makes the attributes the
// reply carries and the grant one atomic step against a conflicting mutation.
func (t *FileDelegs) grant(owner string, id FileID, created bool) bool {
	if owner == "" {
		return false
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if h := t.holders[id]; h != nil {
		return h.owner == owner && h.recall == nil
	}
	if _, never := t.recalled[id]; never || t.frozen > 0 || (!created && t.inGraceLocked()) {
		return false
	}
	t.holders[id] = &fileDeleg{owner: owner}
	t.ownerLocked(owner).held[id] = struct{}{}
	t.grants.Inc()
	return true
}

// inGraceLocked reports whether a restarted MDS's grace period is still
// running, retiring it once it is over. Caller holds mu.
func (t *FileDelegs) inGraceLocked() bool {
	if t.grace == nil {
		return false
	}
	if t.clk.Now().Before(t.grace.deadline) {
		return true
	}
	close(t.grace.done)
	t.grace = nil
	return false
}

// conflict is the check a mutation of inode id on behalf of owner makes
// under the lock that orders it: nil means go ahead. Otherwise somebody else
// holds the delegation — the recall has been issued, or joined if another
// mutation got here first — or the grace period of a restarted MDS is still
// running and a holder the table knows nothing of may exist. The holder's own
// mutations always go ahead, even while its delegation is on its way back: it
// is the holder until the recall has ended.
func (t *FileDelegs) conflict(owner string, id FileID) *Recall {
	t.mu.Lock()
	defer t.mu.Unlock()
	h := t.holders[id]
	if h != nil && h.owner == owner {
		return nil
	}
	if t.inGraceLocked() {
		return t.grace
	}
	if h == nil {
		return nil
	}
	if h.recall == nil {
		o := t.owners[h.owner]
		delete(o.held, id)
		t.issueLocked(o, id, []FileID{id})
	}
	return t.liveLocked(h.recall)
}

// conflictAll is conflict for a directory rename or remove: every delegation
// held by anyone but owner is recalled, and the holders are told to drop
// their dentry caches with them.
func (t *FileDelegs) conflictAll(owner string) []*Recall {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.inGraceLocked() {
		return []*Recall{t.grace}
	}
	var out []*Recall
	for name, o := range t.owners {
		if name == owner {
			continue
		}
		t.recallOwnerLocked(o)
		for _, p := range o.pending {
			if r := t.liveLocked(p.recall); r != nil {
				out = append(out, r)
			}
		}
	}
	return out
}

// recallOwnerLocked recalls everything o still holds, as one recall. Caller
// holds mu.
func (t *FileDelegs) recallOwnerLocked(o *delegOwner) {
	if len(o.held) == 0 {
		return
	}
	ids := make([]FileID, 0, len(o.held))
	for id := range o.held {
		ids = append(ids, id)
	}
	clear(o.held)
	t.issueLocked(o, RecallAll, ids)
}

// issueLocked starts one recall of ids, all held by o, telling it to drop
// what. Recalled inodes are never granted again. Caller holds mu.
func (t *FileDelegs) issueLocked(o *delegOwner, what FileID, ids []FileID) {
	r := &Recall{ids: ids, deadline: o.lease, done: make(chan struct{})}
	for _, id := range ids {
		t.holders[id].recall = r
		t.recalled[id] = struct{}{}
	}
	o.seq++
	o.pending = append(o.pending, pendingRecall{seq: o.seq, id: what, recall: r})
	t.recalls.Add(int64(len(ids)))
}

// liveLocked returns r if somebody still has to wait for it, ending it first
// if the lease behind it has run out: the holder serves nothing from its
// cache any more and learns of the recall from its next reply. Caller holds mu.
func (t *FileDelegs) liveLocked(r *Recall) *Recall {
	if r.ended() {
		return nil
	}
	if t.clk.Now().Before(r.deadline) {
		return r
	}
	t.lapses.Add(int64(len(r.ids)))
	t.endLocked(r)
	return nil
}

// endLocked finishes recall r: its inodes leave the holder table and every
// waiter is released. Caller holds mu.
func (t *FileDelegs) endLocked(r *Recall) {
	if r.ended() {
		return
	}
	for _, id := range r.ids {
		if h := t.holders[id]; h != nil && h.recall == r {
			delete(t.holders, id)
		}
	}
	close(r.done)
}

// Await blocks until every recall in rs has ended: acknowledged by its
// holder, or timed out with the lease the holder had when it was issued. It
// must be called with no store lock held; it is where a daemon thread waits,
// never longer than DelegTerm.
func (t *FileDelegs) Await(rs []*Recall) {
	start := t.clk.Now()
	for _, r := range rs {
		if r.ended() {
			continue
		}
		select {
		case <-r.done:
		case <-t.clk.After(r.deadline.Sub(t.clk.Now())):
			t.mu.Lock()
			if r == t.grace {
				t.inGraceLocked()
			} else {
				t.liveLocked(r)
			}
			t.mu.Unlock()
		}
	}
	t.waits.ObserveDuration(t.clk.Since(start))
}

// Freeze keeps new grants out while a directory mutation sits between its
// recalls and its apply: a grant made in that window would be one the
// mutation never recalled. Thaw ends it.
func (t *FileDelegs) Freeze() {
	t.mu.Lock()
	t.frozen++
	t.mu.Unlock()
}

// Thaw undoes one Freeze.
func (t *FileDelegs) Thaw() {
	t.mu.Lock()
	t.frozen--
	t.mu.Unlock()
}

// revoke recalls everything owner holds without waiting for it (lease expiry,
// ClientGone). The entries stay in the table until the owner's delegation
// lease has run out too, so a mutation that arrives earlier still waits; the
// owner is told to drop everything by the first reply it gets if it ever
// comes back.
func (t *FileDelegs) revoke(owner string) {
	t.mu.Lock()
	if o := t.owners[owner]; o != nil {
		t.recallOwnerLocked(o)
	}
	t.mu.Unlock()
}

// drop forgets inode id, which has been freed: inode numbers are never
// reused, so nothing can ask about it again.
func (t *FileDelegs) drop(id FileID) {
	t.mu.Lock()
	if h := t.holders[id]; h != nil {
		delete(t.owners[h.owner].held, id)
		delete(t.holders, id)
	}
	delete(t.recalled, id)
	t.mu.Unlock()
}

// delegConflict is the check a namespace mutation of ino on behalf of owner
// makes under the exclusive namespace lock: nil means go ahead. A regular file
// conflicts with another owner's delegation on it; a directory with every
// delegation anybody else holds on this shard, because holders key their
// caches by path.
func (s *Store) delegConflict(owner string, ino *inode) *DelegHeld {
	if ino.typ == TypeDir {
		if rs := s.fdelegs.conflictAll(owner); len(rs) > 0 {
			return &DelegHeld{Recalls: rs, Dir: true}
		}
		return nil
	}
	if r := s.fdelegs.conflict(owner, ino.id); r != nil {
		return &DelegHeld{Recalls: []*Recall{r}}
	}
	return nil
}
