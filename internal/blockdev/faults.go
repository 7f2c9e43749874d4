package blockdev

import (
	"errors"
	"math/rand"
	"sync"
)

// Injected device faults. A fault fires at completion time, after the
// request's service time has been paid, mimicking a drive that seeks, spins,
// and then reports a medium error — or loses power mid-sector.

// ErrInjected is the sentinel wrapped by every fault-injected I/O error.
var ErrInjected = errors.New("blockdev: injected I/O fault")

// WriteFault is the fate assigned to one write request.
type WriteFault int

// Write fates.
const (
	// WriteOK persists the request normally.
	WriteOK WriteFault = iota
	// WriteError fails the request; nothing is persisted.
	WriteError
	// WriteTorn persists only a prefix of the request, then fails it. The
	// durability record covers exactly the persisted prefix, so the
	// ordered-write oracle sees the full range as not durable.
	WriteTorn
)

// WriteFaultFunc decides the fate of one write request of n bytes at off.
// For WriteTorn it also returns how many leading bytes survive; the device
// clamps the prefix to [0, n). Called from the device scheduler goroutine,
// so implementations must be fast and must not call back into the device.
type WriteFaultFunc func(off, n int64) (WriteFault, int64)

// ProbFaults returns a seeded WriteFaultFunc that fails writes with
// probability errProb and tears them with probability tornProb (a torn write
// keeps a uniformly random prefix). The stream of decisions is a pure
// function of the seed and the request sequence.
func ProbFaults(seed int64, errProb, tornProb float64) WriteFaultFunc {
	rng := rand.New(rand.NewSource(seed))
	var mu sync.Mutex
	return func(off, n int64) (WriteFault, int64) {
		mu.Lock()
		defer mu.Unlock()
		p, frac := rng.Float64(), rng.Float64()
		switch {
		case p < errProb:
			return WriteError, 0
		case p < errProb+tornProb:
			return WriteTorn, int64(frac * float64(n))
		}
		return WriteOK, 0
	}
}

// SetWriteFault installs (or, with nil, removes) the device's write-fault
// hook. Tests arm it mid-run to tear an exact write, e.g. a journal batch.
func (d *Device) SetWriteFault(fn WriteFaultFunc) {
	d.mu.Lock()
	d.writeFault = fn
	d.mu.Unlock()
}
