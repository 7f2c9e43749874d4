// Package meta mirrors the store surface of redbud's internal/meta for the
// durability fixtures. Only the names matter.
package meta

import "time"

// Store mirrors the metadata store's journaled mutators: Begin<Op> applies
// and returns the durability wait, the plain name waits inline.
type Store struct{}

func (s *Store) BeginCreate(at time.Time, name string) (func() error, error) { return nil, nil }
func (s *Store) Create(name string) error                                    { return nil }
func (s *Store) Remove(name string) error                                    { return nil }
func (s *Store) AllocLayout(owner string) error                              { return nil }
func (s *Store) Commit(owner string) error                                   { return nil }
func (s *Store) GetAttr(name string) error                                   { return nil }
