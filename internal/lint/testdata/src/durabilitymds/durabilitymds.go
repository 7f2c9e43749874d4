// Package mds exercises the durability analyzer's server-side rule: an MDS
// handler applies a journaled mutation with its Begin<Op> half and leaves the
// wait for the record to the connection's completion stage.
package mds

import "meta"

type Server struct {
	store *meta.Store
}

// goodBegin applies and hands the wait on.
func (s *Server) goodBegin() (func() error, error) {
	return s.store.BeginCreate("f")
}

// goodRead waits for nothing.
func (s *Server) goodRead() error {
	return s.store.GetAttr("f")
}

// badInline holds the daemon until each record is durable.
func (s *Server) badInline() {
	_ = s.store.Create("f")       // want `meta.Store.Create waits for the journal`
	_ = s.store.Remove("f")       // want `meta.Store.Remove waits for the journal`
	_ = s.store.AllocLayout("c1") // want `meta.Store.AllocLayout waits for the journal`
	_ = s.store.Commit("c1")      // want `meta.Store.Commit waits for the journal`
}
