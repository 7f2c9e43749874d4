// Package rpc mirrors the client surface of redbud's internal/rpc for
// analyzer fixtures.
package rpc

import "proto"

// Client is a stand-in for the RPC client; Call/CallRaw/Compound block on a
// network round trip.
type Client struct{}

func (c *Client) Call(op proto.Op, req, resp any) error { return nil }

func (c *Client) CallRaw(op proto.Op, payload []byte) ([]byte, error) { return nil, nil }

func (c *Client) Compound(subs []SubOp) error { return nil }

// SubOp is one operation of a compound RPC.
type SubOp struct {
	Op      proto.Op
	Payload []byte
}

// RemoteError is a refusal the server sent back.
type RemoteError struct {
	Op      proto.Op
	Message string
}

func (e *RemoteError) Error() string { return e.Message }
