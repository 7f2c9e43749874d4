// Package meta mirrors the locking structure of redbud's internal/meta so
// the lockorder analyzer can be exercised against both correct and inverted
// acquisition orders.
package meta

import (
	"sync"

	"rpc"
)

type delegation struct {
	mu sync.Mutex
}

// intentTable mirrors meta.intentTable: the write-intent lock sits between
// the stripe and delegation levels.
type intentTable struct {
	mu sync.Mutex
}

// nsIntentTable mirrors meta.nsIntentTable: the cross-shard namespace
// intent lock ranks between the write-intent table and delegation.
type nsIntentTable struct {
	mu sync.Mutex
}

// FileDelegs mirrors meta.FileDelegs: the file-delegation holder table ranks
// between the ns-intent table and delegation; a mutation that runs into a
// delegation waits for the recall with nothing held.
type FileDelegs struct {
	mu sync.Mutex
}

// Journal mirrors meta.Journal; Append is the instantaneous slot
// reservation at the bottom of the hierarchy.
type Journal struct{}

func (j *Journal) Append(rec []byte) func() error { return nil }

type Store struct {
	ns        sync.RWMutex
	stripes   [4]sync.RWMutex
	intents   *intentTable
	nsIntents *nsIntentTable
	fdelegs   *FileDelegs
	deleg     delegation
	journal   *Journal
}

func (s *Store) stripe(id uint64) *sync.RWMutex {
	return &s.stripes[id%4]
}

// goodOrder follows the documented hierarchy: namespace, then stripe, then
// delegation, then the journal reservation; the durability wait runs only
// after every lock is released.
func goodOrder(s *Store, id uint64) error {
	s.ns.Lock()
	st := s.stripe(id)
	st.Lock()
	s.deleg.mu.Lock()
	wait := s.journal.Append(nil)
	s.deleg.mu.Unlock()
	st.Unlock()
	s.ns.Unlock()
	return wait()
}

// goodEarlyExit releases on the failure path before taking the stripe lock;
// the analyzer must not carry the terminated branch's state forward.
func goodEarlyExit(s *Store, id uint64, ok bool) {
	s.ns.RLock()
	if !ok {
		s.ns.RUnlock()
		return
	}
	st := s.stripe(id)
	st.Lock()
	st.Unlock()
	s.ns.RUnlock()
}

// goodIndexed locks a stripe by direct index after the namespace lock.
func goodIndexed(s *Store, i int) {
	s.ns.RLock()
	s.stripes[i].Lock()
	s.stripes[i].Unlock()
	s.ns.RUnlock()
}

// goodIntentUnderStripe publishes intents under a stripe lock and takes the
// delegation lock only after the intent lock is released — the documented
// order for the write-intent path.
func goodIntentUnderStripe(s *Store, id uint64) {
	st := s.stripe(id)
	st.Lock()
	s.intents.mu.Lock()
	s.intents.mu.Unlock()
	s.deleg.mu.Lock()
	s.deleg.mu.Unlock()
	st.Unlock()
}

// goodNSIntentOrder runs the cross-shard publish path in the documented
// order: namespace, then the ns-intent table, then the journal reservation.
func goodNSIntentOrder(s *Store) error {
	s.ns.Lock()
	s.nsIntents.mu.Lock()
	s.nsIntents.mu.Unlock()
	wait := s.journal.Append(nil)
	s.ns.Unlock()
	return wait()
}

// goodIntentThenNSIntent releases the write-intent lock before taking the
// ns-intent lock; the ranks are adjacent but never nested in practice.
func goodIntentThenNSIntent(s *Store) {
	s.intents.mu.Lock()
	s.intents.mu.Unlock()
	s.nsIntents.mu.Lock()
	s.nsIntents.mu.Unlock()
}

// goodFileDelegUnderStripe checks for a conflicting delegation under the
// stripe lock that orders the commit, releases everything, and only then waits
// for the recall — the BeginCommit / Await split.
func goodFileDelegUnderStripe(s *Store, id uint64, recalled chan struct{}) {
	s.ns.RLock()
	st := s.stripe(id)
	st.Lock()
	s.fdelegs.mu.Lock()
	s.fdelegs.mu.Unlock()
	st.Unlock()
	s.ns.RUnlock()
	<-recalled
}

// badRecallWaitUnderFileDeleg waits for a recall while holding the table
// lock the acknowledgement needs.
func badRecallWaitUnderFileDeleg(s *Store, recalled chan struct{}) {
	s.fdelegs.mu.Lock()
	<-recalled // want `channel receive while holding`
	s.fdelegs.mu.Unlock()
}

// badRecallWaitUnderStripe waits for a recall while holding the stripe lock
// of the file being committed: every other commit on the stripe, and the
// holder's own, would queue behind a client that may never answer.
func badRecallWaitUnderStripe(s *Store, id uint64, recalled chan struct{}) {
	st := s.stripe(id)
	st.Lock()
	select { // want `select without default while holding`
	case <-recalled:
	}
	st.Unlock()
}

// badStripeUnderFileDeleg acquires a stripe while holding the table lock.
func badStripeUnderFileDeleg(s *Store, id uint64) {
	s.fdelegs.mu.Lock()
	s.stripe(id).Lock() // want `inverts the lock hierarchy`
	s.stripe(id).Unlock()
	s.fdelegs.mu.Unlock()
}

// badFileDelegUnderDeleg acquires the table lock under delegation.mu.
func badFileDelegUnderDeleg(s *Store) {
	s.deleg.mu.Lock()
	s.fdelegs.mu.Lock() // want `inverts the lock hierarchy`
	s.fdelegs.mu.Unlock()
	s.deleg.mu.Unlock()
}

// badIntentUnderNSIntent acquires the write-intent lock under the ns-intent
// lock — the write-intent table ranks above it.
func badIntentUnderNSIntent(s *Store) {
	s.nsIntents.mu.Lock()
	s.intents.mu.Lock() // want `inverts the lock hierarchy`
	s.intents.mu.Unlock()
	s.nsIntents.mu.Unlock()
}

// badNSIntentUnderDeleg acquires the ns-intent lock under delegation.
func badNSIntentUnderDeleg(s *Store) {
	s.deleg.mu.Lock()
	s.nsIntents.mu.Lock() // want `inverts the lock hierarchy`
	s.nsIntents.mu.Unlock()
	s.deleg.mu.Unlock()
}

// badRPCUnderNSIntent holds the ns-intent lock across an RPC round trip —
// the cross-shard protocol must publish intents before calling the peer
// shard, never while holding the table lock.
func badRPCUnderNSIntent(s *Store, c *rpc.Client) {
	s.nsIntents.mu.Lock()
	c.Call(1, nil, nil) // want `RPC Call while holding`
	s.nsIntents.mu.Unlock()
}

// badStripeUnderIntent acquires a stripe while holding the intent lock.
func badStripeUnderIntent(s *Store, id uint64) {
	s.intents.mu.Lock()
	s.stripe(id).Lock() // want `inverts the lock hierarchy`
	s.stripe(id).Unlock()
	s.intents.mu.Unlock()
}

// badIntentUnderDeleg acquires the intent lock under the delegation lock.
func badIntentUnderDeleg(s *Store) {
	s.deleg.mu.Lock()
	s.intents.mu.Lock() // want `inverts the lock hierarchy`
	s.intents.mu.Unlock()
	s.deleg.mu.Unlock()
}

// badRPCUnderIntent holds the intent lock across an RPC round trip.
func badRPCUnderIntent(s *Store, c *rpc.Client) {
	s.intents.mu.Lock()
	c.Call(1, nil, nil) // want `RPC Call while holding`
	s.intents.mu.Unlock()
}

// badInversion takes the namespace lock while holding a stripe.
func badInversion(s *Store, id uint64) {
	st := s.stripe(id)
	st.Lock()
	s.ns.Lock() // want `inverts the lock hierarchy`
	s.ns.Unlock()
	st.Unlock()
}

// badDelegThenStripe acquires a stripe under the delegation lock.
func badDelegThenStripe(s *Store, id uint64) {
	s.deleg.mu.Lock()
	s.stripe(id).Lock() // want `inverts the lock hierarchy`
	s.stripe(id).Unlock()
	s.deleg.mu.Unlock()
}

// badRPCUnderStripe holds a stripe lock across an RPC round trip.
func badRPCUnderStripe(s *Store, id uint64, c *rpc.Client) {
	st := s.stripe(id)
	st.Lock()
	c.Call(1, nil, nil) // want `RPC Call while holding`
	st.Unlock()
}

// badChannelUnderNS blocks on a channel receive under the namespace lock.
func badChannelUnderNS(s *Store, ch chan int) {
	s.ns.Lock()
	<-ch // want `channel receive while holding`
	s.ns.Unlock()
}

// goodWaitAfterUnlock receives from the durability channel only after all
// locks are released (the journalAppend closure pattern).
func goodWaitAfterUnlock(s *Store, id uint64, ch chan error) error {
	s.ns.Lock()
	st := s.stripe(id)
	st.Lock()
	st.Unlock()
	s.ns.Unlock()
	return <-ch
}

// goodGoroutine: a spawned goroutine starts with no locks held, so its
// channel receive is fine even though the spawner holds the namespace lock.
func goodGoroutine(s *Store, ch chan int) {
	s.ns.Lock()
	go func() {
		<-ch
	}()
	s.ns.Unlock()
}
