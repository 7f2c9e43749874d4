// Package proto mirrors the opcode surface of redbud's internal/proto for
// analyzer fixtures. Only the names the analyzers key on matter.
package proto

// Op identifies an RPC operation.
type Op uint8

const (
	OpWrite  Op = 1
	OpCommit Op = 2
)
