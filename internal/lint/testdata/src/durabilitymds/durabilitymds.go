// Package mds exercises the durability analyzer's server-side rule: an MDS
// handler applies a journaled mutation with its Begin<Op> half, at the
// modeled instant it carries, and leaves the wait for the record to the
// connection's completion stage.
package mds

import (
	"time"

	"meta"
)

type clock struct{}

func (clock) Now() time.Time { return time.Time{} }

type Server struct {
	store *meta.Store
	clk   clock
}

// goodBegin applies at the handler's instant and hands the wait on.
func (s *Server) goodBegin(at time.Time) (func() error, error) {
	return s.store.BeginCreate(at, "f")
}

// goodAfterWait continues from the instant an unmodeled wait ended.
func (s *Server) goodAfterWait(at time.Time) (func() error, error) {
	at = s.clk.Now()
	return s.store.BeginCreate(at, "f")
}

// badInstant drops the instant the handler was given.
func (s *Server) badInstant() {
	_, _ = s.store.BeginCreate(time.Time{}, "f")  // want `meta.Store.BeginCreate stamped with the zero time`
	_, _ = s.store.BeginCreate(s.clk.Now(), "f")  // want `meta.Store.BeginCreate stamped with a fresh Now\(\)`
	_, _ = s.store.BeginCreate((time.Now()), "f") // want `meta.Store.BeginCreate stamped with a fresh Now\(\)`
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
