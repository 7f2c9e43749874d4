package meta

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"redbud/internal/alloc"
	"redbud/internal/clock"
	"redbud/internal/obs"
)

// delegStore is a volatile store on a manual clock nobody advances but the
// test: every lease and recall deadline is an exact instant.
func delegStore(t *testing.T) (*Store, *clock.Manual) {
	t.Helper()
	clk := clock.NewManual()
	ags := alloc.NewUniformAGSet(alloc.RoundRobin, 0, 64<<20, 4)
	return NewStore(Config{AGs: ags, Clock: clk}), clk
}

// held unwraps the refusal of a mutation that ran into a delegation.
func held(t *testing.T, err error) *DelegHeld {
	t.Helper()
	var h *DelegHeld
	if !errors.As(err, &h) {
		t.Fatalf("err = %v, want *DelegHeld", err)
	}
	return h
}

// awaiting runs Await in the background and reports when it has returned.
func awaiting(d *FileDelegs, rs []*Recall) <-chan struct{} {
	done := make(chan struct{})
	go func() {
		d.Await(rs)
		close(done)
	}()
	return done
}

func stillWaiting(t *testing.T, done <-chan struct{}, why string) {
	t.Helper()
	select {
	case <-done:
		t.Fatalf("recall wait ended %s", why)
	case <-time.After(20 * time.Millisecond):
	}
}

func released(t *testing.T, done <-chan struct{}, why string) {
	t.Helper()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatalf("recall wait did not end %s", why)
	}
}

// waitersOn waits until n goroutines are parked on the manual clock, so that
// the advance that follows is the one that wakes them.
func waitersOn(t *testing.T, clk *clock.Manual, n int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for clk.Waiters() < n {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines on the clock, want %d", clk.Waiters(), n)
		}
		time.Sleep(100 * time.Microsecond)
	}
}

// TestDelegGrantIsExclusive: the reply that creates or opens a regular file
// grants it to the owner that asked, once; directories, anonymous callers and
// second owners get nothing; the holder is granted again whenever it asks.
func TestDelegGrantIsExclusive(t *testing.T) {
	s, _ := delegStore(t)
	d := s.FileDelegs()
	d.Arrive("A", 0)
	a, granted, err := createAs(s, "A", RootID, "f", TypeFile)
	if err != nil || !granted {
		t.Fatalf("BeginCreate = granted %v, %v; want the creator to hold its file", granted, err)
	}
	if _, granted, _ := createAs(s, "A", RootID, "dir", TypeDir); granted {
		t.Fatal("a directory was delegated")
	}
	if _, granted, _ := s.LookupAs("B", RootID, "f"); granted {
		t.Fatal("a second owner was granted a held file")
	}
	if _, granted, _ := s.GetAttrAs("", a.ID); granted {
		t.Fatal("an anonymous caller was granted")
	}
	if _, granted, _ := s.LookupAs("A", RootID, "f"); !granted {
		t.Fatal("the holder was not granted again")
	}
	anon := mustCreate(t, s, RootID, "g", TypeFile)
	if _, granted, _ := s.GetAttrAs("B", anon.ID); !granted {
		t.Fatal("the first open of a file nobody holds was not granted")
	}
	if st := d.Stats(); st.Grants != 2 || st.Held != 2 || st.Recalls != 0 {
		t.Fatalf("stats = %+v, want 2 grants, 2 held, 0 recalls", st)
	}
}

// TestDelegRecallEndsOnAck: a commit, remove, rename or cross-shard prepare by
// another owner is refused until the holder has acknowledged the recall; the
// recall rides on every reply to the holder until then; the holder's own
// mutations never recall it; a recalled inode is never granted again.
func TestDelegRecallEndsOnAck(t *testing.T) {
	mutations := map[string]func(s *Store, owner string, id FileID) error{
		"commit": func(s *Store, owner string, id FileID) error {
			lay, err := s.AllocLayout(owner, id, 0, 4096)
			if err != nil {
				return err
			}
			_, err = s.BeginCommit(time.Time{}, owner, id, lay.Extents, 4096, clock.Epoch.Add(time.Second), 0, obs.SpanContext{})
			return err
		},
		"remove": func(s *Store, owner string, _ FileID) error {
			return settle(s.BeginRemove(time.Time{}, owner, RootID, "f"))
		},
		"rename": func(s *Store, owner string, _ FileID) error {
			return settle(s.BeginRename(time.Time{}, owner, RootID, "f", RootID, "g"))
		},
		"ns-prepare": func(s *Store, owner string, id FileID) error {
			return settle(s.BeginNSPrepare(time.Time{}, owner, id, NSRemove, TypeFile, RootID, "f", 0, ""))
		},
	}
	for name, mutate := range mutations {
		t.Run(name, func(t *testing.T) {
			s, _ := delegStore(t)
			d := s.FileDelegs()
			d.Arrive("A", 0)
			a, _, err := createAs(s, "A", RootID, "f", TypeFile)
			if err != nil {
				t.Fatal(err)
			}
			before := storeHash(s)

			h := held(t, mutate(s, "B", a.ID))
			if len(h.Recalls) != 1 || h.Dir {
				t.Fatalf("refusal = %+v, want one recall of a file", h)
			}
			if name != "commit" && storeHash(s) != before { // the commit's allocation is its own, earlier, mutation
				t.Fatal("the refused mutation changed the store")
			}
			done := awaiting(d, h.Recalls)
			stillWaiting(t, done, "before the holder acknowledged")
			// A second mutation joins the same recall instead of issuing one.
			if h2 := held(t, mutate(s, "C", a.ID)); h2.Recalls[0] != h.Recalls[0] {
				t.Fatal("a second mutation issued a second recall of the same delegation")
			}
			seq, ids := d.Pending("A")
			if seq != 1 || len(ids) != 1 || ids[0] != a.ID {
				t.Fatalf("Pending(A) = seq %d, %v; want the one recall of inode %d", seq, ids, a.ID)
			}
			if _, ids = d.Pending("A"); len(ids) != 1 {
				t.Fatal("the recall did not ride on the second reply: a lost first reply would have hidden it")
			}
			if _, granted, _ := s.GetAttrAs("A", a.ID); granted {
				t.Fatal("the holder was granted again while its delegation is being recalled")
			}

			d.Ack("A", seq)
			released(t, done, "after the acknowledgement")
			if _, ids := d.Pending("A"); len(ids) != 0 {
				t.Fatalf("acknowledged recall still pending: %v", ids)
			}
			if err := mutate(s, "B", a.ID); err != nil {
				t.Fatalf("mutation after the recall: %v", err)
			}
			if _, granted, err := s.GetAttrAs("B", a.ID); err == nil && granted {
				t.Fatal("a recalled inode was granted again")
			}
			if st := d.Stats(); st.Recalls != 1 || st.Lapses != 0 {
				t.Fatalf("stats = %+v, want 1 recall ended by acknowledgement", st)
			}
		})
		t.Run(name+"/own", func(t *testing.T) {
			s, _ := delegStore(t)
			s.FileDelegs().Arrive("A", 0)
			a, _, err := createAs(s, "A", RootID, "f", TypeFile)
			if err != nil {
				t.Fatal(err)
			}
			if err := mutate(s, "A", a.ID); err != nil {
				t.Fatalf("the holder's own mutation: %v", err)
			}
			if st := s.FileDelegs().Stats(); st.Recalls != 0 {
				t.Fatalf("the holder's own mutation recalled it: %+v", st)
			}
		})
	}
}

// TestDelegRecallEndsWithTheLease: a holder that does not answer costs the
// mutation exactly the rest of the lease it had when the recall was issued —
// requests that arrive later (their replies carry the recall) do not extend
// the wait — and the recall stays on the holder's replies after it lapsed.
func TestDelegRecallEndsWithTheLease(t *testing.T) {
	s, clk := delegStore(t)
	d := s.FileDelegs()
	d.Arrive("A", 0) // lease until Epoch + DelegTerm
	a, _, err := createAs(s, "A", RootID, "f", TypeFile)
	if err != nil {
		t.Fatal(err)
	}
	clk.Advance(DelegTerm / 4)
	h := held(t, settle(s.BeginRemove(time.Time{}, "B", RootID, "f")))
	done := awaiting(d, h.Recalls)
	waitersOn(t, clk, 1)

	clk.Advance(DelegTerm / 4)
	d.Arrive("A", 0) // the reply to this one carries the recall; it renews nothing the recall waits for
	clk.Advance(DelegTerm/2 - time.Nanosecond)
	stillWaiting(t, done, "one nanosecond before the lease ran out")
	clk.Advance(time.Nanosecond)
	released(t, done, "when the lease ran out")
	if err := settle(s.BeginRemove(time.Time{}, "B", RootID, "f")); err != nil {
		t.Fatalf("remove after the lapse: %v", err)
	}
	if _, ids := d.Pending("A"); len(ids) != 1 || ids[0] != a.ID {
		t.Fatalf("Pending(A) = %v after the lapse, want the recall the holder never saw", ids)
	}
	if st := d.Stats(); st.Recalls != 1 || st.Lapses != 1 {
		t.Fatalf("stats = %+v, want 1 recall ended by lapse", st)
	}
	if d.RecallWaits().Count() != 1 {
		t.Fatalf("recall-wait histogram has %d samples, want 1", d.RecallWaits().Count())
	}

	// A holder whose lease is gone already costs nothing at all.
	b, _, err := createAs(s, "A", RootID, "g", TypeFile)
	if err != nil {
		t.Fatal(err)
	}
	clk.Advance(2 * DelegTerm)
	if err := settle(s.BeginRemove(time.Time{}, "B", RootID, "g")); err != nil {
		t.Fatalf("remove of a file whose holder's lease has run out = %v, want no wait", err)
	}
	if _, ids := d.Pending("A"); len(ids) != 2 || ids[1] != b.ID {
		t.Fatalf("Pending(A) = %v, want both recalls", ids)
	}
}

// TestDelegDirectoryMutationRecallsEverything: a foreign rename or remove of
// a directory recalls every delegation of every other owner in one recall
// each, tells them to drop everything, and keeps grants out while frozen.
func TestDelegDirectoryMutationRecallsEverything(t *testing.T) {
	s, _ := delegStore(t)
	d := s.FileDelegs()
	dir := mustCreate(t, s, RootID, "d", TypeDir)
	for _, owner := range []string{"A", "B", "C"} {
		d.Arrive(owner, 0)
		for i := 0; i < 3; i++ {
			if _, granted, err := createAs(s, owner, dir.ID, fmt.Sprintf("%s%d", owner, i), TypeFile); err != nil || !granted {
				t.Fatalf("create: granted %v, %v", granted, err)
			}
		}
	}
	h := held(t, settle(s.BeginRename(time.Time{}, "C", RootID, "d", RootID, "e")))
	if !h.Dir || len(h.Recalls) != 2 {
		t.Fatalf("refusal = %d recalls, dir %v; want one recall per other owner", len(h.Recalls), h.Dir)
	}
	for _, owner := range []string{"A", "B"} {
		if seq, ids := d.Pending(owner); seq != 1 || len(ids) != 1 || ids[0] != RecallAll {
			t.Fatalf("Pending(%s) = seq %d, %v; want the single drop-everything entry", owner, seq, ids)
		}
	}
	if _, ids := d.Pending("C"); len(ids) != 0 {
		t.Fatalf("the renaming owner was recalled: %v", ids)
	}
	d.Freeze()
	if _, granted, _ := createAs(s, "A", RootID, "late", TypeFile); granted {
		t.Fatal("a grant slipped in between a directory mutation's recall and its apply")
	}
	done := awaiting(d, h.Recalls)
	d.Ack("A", 1)
	stillWaiting(t, done, "with one of two holders still to answer")
	d.Ack("B", 1)
	released(t, done, "after both holders acknowledged")
	if err := settle(s.BeginRename(time.Time{}, "C", RootID, "d", RootID, "e")); err != nil {
		t.Fatalf("rename after the recalls: %v", err)
	}
	d.Thaw()
	if st := d.Stats(); st.Recalls != 6 || st.Held != 3 {
		t.Fatalf("stats = %+v, want 6 delegations recalled and C's 3 still held", st)
	}
	if _, granted, _ := createAs(s, "A", RootID, "later", TypeFile); !granted {
		t.Fatal("grants stayed frozen after the thaw")
	}
}

// TestDelegPendingCollapses: a backlog longer than one reply should carry
// becomes "drop everything".
func TestDelegPendingCollapses(t *testing.T) {
	s, _ := delegStore(t)
	d := s.FileDelegs()
	d.Arrive("A", 0)
	for i := 0; i <= maxPendingRecalls; i++ {
		name := fmt.Sprintf("f%d", i)
		if _, _, err := createAs(s, "A", RootID, name, TypeFile); err != nil {
			t.Fatal(err)
		}
		held(t, settle(s.BeginRemove(time.Time{}, "B", RootID, name)))
	}
	if seq, ids := d.Pending("A"); seq != maxPendingRecalls+1 || len(ids) != 1 || ids[0] != RecallAll {
		t.Fatalf("Pending = seq %d, %d entries; want one drop-everything entry", seq, len(ids))
	}
	// An echo of a number never issued acknowledges nothing.
	d.Ack("A", maxPendingRecalls+99)
	if _, ids := d.Pending("A"); len(ids) != 1 {
		t.Fatal("an acknowledgement beyond the issued sequence was honoured")
	}
}

// TestDelegGraceAfterRestart: a restarted MDS grants nothing but new files and
// makes every mutation it cannot vouch for wait out one DelegTerm.
func TestDelegGraceAfterRestart(t *testing.T) {
	s, clk := delegStore(t)
	d := s.FileDelegs()
	old := mustCreate(t, s, RootID, "old", TypeFile) // delegated by the previous incarnation, for all this one knows
	d.BeginGrace()
	d.Arrive("A", 0)
	if _, granted, _ := s.LookupAs("A", RootID, "old"); granted {
		t.Fatal("an existing file was granted during the grace period")
	}
	fresh, granted, err := createAs(s, "A", RootID, "new", TypeFile)
	if err != nil || !granted {
		t.Fatalf("a file created during the grace period: granted %v, %v", granted, err)
	}
	if _, err := s.BeginCommit(time.Time{}, "A", fresh.ID, nil, 1, clock.Epoch, 0, obs.SpanContext{}); err != nil {
		t.Fatalf("the holder's commit during the grace period: %v", err)
	}
	// A commit that is not acceptable as it arrives is refused at once: were
	// it parked first and validated a lease term later, a request built in
	// the dead session could by then name space that has been delegated again.
	stale := []Extent{{Len: 4096, VolOff: 1 << 20}}
	if _, err := s.BeginCommit(time.Time{}, "A", old.ID, stale, 4096, clock.Epoch, 0, obs.SpanContext{}); !errors.Is(err, ErrBadCommit) {
		t.Fatalf("commit of unallocated space during the grace period = %v, want ErrBadCommit now", err)
	}
	_, err = s.BeginCommit(time.Time{}, "A", old.ID, nil, 1, clock.Epoch, 0, obs.SpanContext{})
	h := held(t, err)
	done := awaiting(d, h.Recalls)
	waitersOn(t, clk, 1)
	clk.Advance(DelegTerm - time.Nanosecond)
	stillWaiting(t, done, "inside the grace period")
	clk.Advance(time.Nanosecond)
	released(t, done, "at the end of the grace period")
	if _, err := s.BeginCommit(time.Time{}, "A", old.ID, nil, 1, clock.Epoch, 0, obs.SpanContext{}); err != nil {
		t.Fatalf("commit after the grace period: %v", err)
	}
	if _, granted, _ := s.LookupAs("A", RootID, "old"); !granted {
		t.Fatal("nothing is granted after the grace period")
	}
}

// TestClientGoneRevokesFileDelegations: the holder table sits beside the
// space-delegation table, and ClientGone empties both. A mutation that
// arrives inside the revoked owner's lease still waits it out; the owner is
// told to drop everything if it ever comes back.
func TestClientGoneRevokesFileDelegations(t *testing.T) {
	s, clk := delegStore(t)
	d := s.FileDelegs()
	d.Arrive("A", 0)
	if _, err := settled(s.BeginDelegate(time.Time{}, "A", 1<<20)); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"f", "g"} {
		if _, _, err := createAs(s, "A", RootID, name, TypeFile); err != nil {
			t.Fatal(err)
		}
	}
	s.ClientGone("A")
	if s.Delegations("A") != 0 {
		t.Fatal("space delegation survived ClientGone")
	}
	if _, ids := d.Pending("A"); len(ids) != 1 || ids[0] != RecallAll {
		t.Fatalf("Pending(A) = %v, want drop-everything", ids)
	}
	h := held(t, settle(s.BeginRemove(time.Time{}, "B", RootID, "f")))
	done := awaiting(d, h.Recalls)
	waitersOn(t, clk, 1)
	clk.Advance(DelegTerm)
	released(t, done, "when the revoked owner's lease ran out")
	for _, name := range []string{"f", "g"} {
		if err := settle(s.BeginRemove(time.Time{}, "B", RootID, name)); err != nil {
			t.Fatalf("remove %s after the revocation: %v", name, err)
		}
	}
	if st := d.Stats(); st.Held != 0 {
		t.Fatalf("%d delegations still in the table", st.Held)
	}
}

// TestDelegationStateIsVolatile: grants and recalls reach neither the journal
// nor a snapshot, and a recovered store knows none of them.
func TestDelegationStateIsVolatile(t *testing.T) {
	mkAGs := func() *alloc.AGSet { return alloc.NewUniformAGSet(alloc.RoundRobin, 0, 64<<20, 4) }
	run := func(owner string) (hash string, records int, dev func() *Journal) {
		d := newMetaDev(t)
		s := NewStore(Config{AGs: mkAGs(), Journal: NewJournal(d, 0, 32<<20), Clock: clock.NewManual()})
		if owner != "" {
			s.FileDelegs().Arrive(owner, 0)
		}
		for _, name := range []string{"f", "g"} {
			if _, _, err := createAs(s, owner, RootID, name, TypeFile); err != nil {
				t.Fatal(err)
			}
		}
		if owner != "" {
			held(t, settle(s.BeginRemove(time.Time{}, "other", RootID, "g")))
			s.FileDelegs().Ack(owner, 1)
		}
		if err := settle(s.BeginRemove(time.Time{}, "other", RootID, "g")); err != nil {
			t.Fatal(err)
		}
		if _, err := NewJournal(d, 0, 32<<20).Replay(func(*Record) error { records++; return nil }); err != nil {
			t.Fatal(err)
		}
		return storeHash(s), records, func() *Journal { return NewJournal(d, 0, 32<<20) }
	}
	plainHash, plainRecs, _ := run("")
	hash, recs, journal := run("A")
	if hash != plainHash || recs != plainRecs {
		t.Fatalf("delegations changed the snapshot (%v) or the journal (%d vs %d records)", hash != plainHash, recs, plainRecs)
	}
	rec, _, err := Recover(Config{AGs: mkAGs(), Journal: journal(), Clock: clock.NewManual()})
	if err != nil {
		t.Fatal(err)
	}
	if st := rec.FileDelegs().Stats(); st.Held != 0 || st.Grants != 0 {
		t.Fatalf("a recovered store holds delegations: %+v", st)
	}
	if _, granted, _ := rec.LookupAs("B", RootID, "f"); !granted {
		t.Fatal("the recovered store still treats f as held")
	}
}
