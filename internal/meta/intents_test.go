package meta

import (
	"errors"
	"testing"
	"time"
)

// TestIntentPublishConflict pins the table's corruption guard: republishing
// a live extent under a different owner is rejected with a wrapped
// ErrIntentConflict and leaves the table untouched, while the same owner
// republishing (an idempotent replay shape) and disjoint extents both pass.
func TestIntentPublishConflict(t *testing.T) {
	tab := newIntentTable()
	e := Extent{FileOff: 0, Len: 4096, Dev: 1, VolOff: 8192, State: StateUncommitted}
	if err := tab.publish(7, "alice", []Extent{e}); err != nil {
		t.Fatalf("first publish: %v", err)
	}
	if err := tab.publish(7, "alice", []Extent{e}); err != nil {
		t.Fatalf("same-owner republish: %v", err)
	}
	err := tab.publish(7, "bob", []Extent{e})
	if !errors.Is(err, ErrIntentConflict) {
		t.Fatalf("cross-owner republish error = %v, want ErrIntentConflict", err)
	}
	if owner, ok := tab.ownerOf(7, e); !ok || owner != "alice" {
		t.Fatalf("after rejected publish, ownerOf = %q, %v; want alice", owner, ok)
	}
	if _, ok := tab.byOwner["bob"]; ok {
		t.Fatal("rejected publish left bob in the owner index")
	}
	other := Extent{FileOff: 4096, Len: 4096, Dev: 1, VolOff: 16384, State: StateUncommitted}
	if err := tab.publish(7, "bob", []Extent{other}); err != nil {
		t.Fatalf("disjoint publish: %v", err)
	}
}

// TestIntentLifecycleThroughStore drives the intent table through its three
// exits — graduation on commit, rollback on client death, drop on file
// removal — via the public Store API.
func TestIntentLifecycleThroughStore(t *testing.T) {
	s := newStore(t)
	a := mustCreate(t, s, RootID, "f", TypeFile)

	lay, err := s.AllocLayout("w", a.ID, 0, 8192)
	if err != nil {
		t.Fatal(err)
	}
	// Published intents are in the table and hidden from layout lookups.
	if got := len(s.intents.files[a.ID]); got != len(lay.Extents) {
		t.Fatalf("published intents = %d, want %d", got, len(lay.Extents))
	}
	plain, err := s.GetLayout(a.ID, 0, 8192)
	if err != nil {
		t.Fatal(err)
	}
	if len(plain.Extents) != 0 {
		t.Fatalf("layout leaked intents: %+v", plain)
	}
	if owner, ok := s.intents.ownerOf(a.ID, lay.Extents[0]); !ok || owner != "w" {
		t.Fatalf("ownerOf = %q, %v", owner, ok)
	}

	// Commit graduates the intents: they leave the table but the extents stay.
	if err := s.Commit("w", a.ID, lay.Extents, 8192, time.Unix(1, 0).UTC()); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.intents.ownerOf(a.ID, lay.Extents[0]); ok {
		t.Fatal("committed extent still tracked as an intent")
	}
	if got := len(s.intents.files[a.ID]); got != 0 {
		t.Fatalf("%d intents left after graduation", got)
	}
	after, err := s.GetLayout(a.ID, 0, 8192)
	if err != nil {
		t.Fatal(err)
	}
	if len(after.Extents) == 0 {
		t.Fatal("committed extents vanished")
	}
}

func TestIntentRollbackOnClientGone(t *testing.T) {
	s := newStore(t)
	a := mustCreate(t, s, RootID, "f", TypeFile)
	b := mustCreate(t, s, RootID, "g", TypeFile)
	if _, err := s.AllocLayout("dead", a.ID, 0, 4096); err != nil {
		t.Fatal(err)
	}
	if _, err := s.AllocLayout("dead", b.ID, 0, 4096); err != nil {
		t.Fatal(err)
	}
	live, err := s.AllocLayout("live", a.ID, 4096, 4096)
	if err != nil {
		t.Fatal(err)
	}
	if got := s.ClientGone("dead"); got != 8192 {
		t.Fatalf("ClientGone reclaimed %d, want 8192", got)
	}
	for _, id := range []FileID{a.ID, b.ID} {
		for _, in := range s.intents.files[id] {
			if in.owner == "dead" {
				t.Fatalf("file %d still has dead client's intent %+v", id, in.ext)
			}
		}
	}
	// The surviving client's intents are untouched and still committable.
	if owner, ok := s.intents.ownerOf(a.ID, live.Extents[0]); !ok || owner != "live" {
		t.Fatalf("live intent lost: %q, %v", owner, ok)
	}
	if err := s.Commit("live", a.ID, live.Extents, 8192, time.Unix(1, 0).UTC()); err != nil {
		t.Fatalf("surviving client's commit failed: %v", err)
	}
}

func TestIntentDropOnRemove(t *testing.T) {
	s := newStore(t)
	a := mustCreate(t, s, RootID, "f", TypeFile)
	if _, err := s.AllocLayout("w", a.ID, 0, 4096); err != nil {
		t.Fatal(err)
	}
	if err := s.Remove(RootID, "f"); err != nil {
		t.Fatal(err)
	}
	if got := len(s.intents.files[a.ID]); got != 0 {
		t.Fatalf("removed file still has %d intents", got)
	}
	if owners := s.intents.owners(); len(owners) != 0 {
		t.Fatalf("owner index not cleaned: %v", owners)
	}
}
