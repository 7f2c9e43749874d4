// Package meta mirrors the layout-flag and store surface of redbud's
// internal/meta for the wireevolve version-clamp and durability fixtures.
// Only the names matter.
package meta

// LayoutFlags selects the behaviour of a layout lookup.
type LayoutFlags uint8

const (
	// LayoutWrite declares write intent.
	LayoutWrite LayoutFlags = 1 << 0
	// LayoutWantUncommitted is the v2-gated early-visibility capability.
	LayoutWantUncommitted LayoutFlags = 1 << 1
)

// Has reports whether every bit in bits is set.
func (f LayoutFlags) Has(bits LayoutFlags) bool { return f&bits == bits }

// Store mirrors the metadata store's journaled mutators: Begin<Op> applies
// and returns the durability wait, the plain name waits inline.
type Store struct{}

func (s *Store) BeginCreate(name string) (func() error, error) { return nil, nil }
func (s *Store) Create(name string) error                      { return nil }
func (s *Store) Remove(name string) error                      { return nil }
func (s *Store) AllocLayout(owner string) error                { return nil }
func (s *Store) Commit(owner string) error                     { return nil }
func (s *Store) GetAttr(name string) error                     { return nil }
