// Package client exercises the senterr rule that applies in every package:
// no branching on the text of an error.
package client

import (
	"errors"
	"fmt"
	"strings"

	"rpc"
)

// ErrGone is a sentinel; outside meta, rpc and blockdev a bare leaf error is
// not flagged.
var ErrGone = errors.New("client: gone")

func leaf() error { return fmt.Errorf("client: no %s", "sentinel") }

func byContains(err error) bool {
	return strings.Contains(err.Error(), "not found") // want `strings.Contains matches the text of an error`
}

func byPrefix(err error) bool {
	return strings.HasPrefix(err.Error(), "meta:") // want `strings.HasPrefix matches the text of an error`
}

func bySuffix(err error) bool {
	return strings.HasSuffix((err).Error(), "exists") // want `strings.HasSuffix matches the text of an error`
}

func byIndex(err error) bool {
	return strings.Index(err.Error(), "is a directory") >= 0 // want `strings.Index matches the text of an error`
}

func byMessage(err error) bool {
	var re *rpc.RemoteError
	return errors.As(err, &re) && strings.Contains(re.Message, "already exists") // want `strings.Contains matches the text of an error`
}

func byConcrete(re *rpc.RemoteError) bool {
	return strings.Contains(re.Error(), "not empty") // want `strings.Contains matches the text of an error`
}

// byIdentity is the sanctioned pattern.
func byIdentity(err error) bool { return errors.Is(err, ErrGone) }

// A name that is not an error's text may be matched, even against one.
func byName(name string, err error) bool {
	return strings.HasPrefix(name, "/tmp") || strings.Contains("x: "+name, err.Error())
}
