//go:build !linux || goexperiment.synctest

package clock

import "time"

// hostSleep blocks for d of wall time on a runtime timer.
func hostSleep(d time.Duration) {
	time.Sleep(d) //lint:allow wallclock — Real is the wall-clock bridge
}

// hostAfterFunc runs f after d of wall time on a runtime timer.
func hostAfterFunc(d time.Duration, f func()) {
	time.AfterFunc(d, f) //lint:allow wallclock — Real is the wall-clock bridge
}
