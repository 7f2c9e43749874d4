// Package iotrace is the simulator's blktrace: it records every dispatched
// I/O of a simulated device and derives the block-level characteristics the
// paper analyses — the disk-seek scatter plots of Figure 5 and the I/O merge
// accounting behind Figure 4.
package iotrace

import (
	"fmt"
	"io"
	"sync"
	"time"

	"redbud/internal/blockdev"
)

// Recorder accumulates dispatch events. Attach its Record method as a
// device's Trace hook. It grows without bound: it is meant for one measured
// experiment window.
type Recorder struct {
	mu  sync.Mutex
	evs []blockdev.Event
}

// NewRecorder returns an empty recorder.
func NewRecorder() *Recorder { return &Recorder{} }

// Record appends one event; safe for concurrent use.
func (r *Recorder) Record(e blockdev.Event) {
	r.mu.Lock()
	r.evs = append(r.evs, e)
	r.mu.Unlock()
}

// Events returns a copy of the recorded events in dispatch order.
func (r *Recorder) Events() []blockdev.Event {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]blockdev.Event(nil), r.evs...)
}

// Len returns the number of recorded events.
func (r *Recorder) Len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.evs)
}

// Reset discards all recorded events.
func (r *Recorder) Reset() {
	r.mu.Lock()
	r.evs = nil
	r.mu.Unlock()
}

// SeekPoint is one point of a Figure 5 panel: the head position over time,
// with the seek distance needed to reach it.
type SeekPoint struct {
	T      time.Duration // since the first event
	Offset int64         // dispatched LBA in bytes
	Seek   int64         // absolute head movement; 0 for sequential
}

// SeekSeries converts recorded write dispatches into the Figure 5 series.
func (r *Recorder) SeekSeries() []SeekPoint {
	evs := r.Events()
	if len(evs) == 0 {
		return nil
	}
	t0 := evs[0].T
	out := make([]SeekPoint, 0, len(evs))
	for _, e := range evs {
		if e.Op != blockdev.OpWrite {
			continue
		}
		out = append(out, SeekPoint{T: e.T.Sub(t0), Offset: e.Offset, Seek: e.SeekLen})
	}
	return out
}

// Summary aggregates block-level characteristics of a trace.
type Summary struct {
	Dispatches  int
	Merged      int   // original requests absorbed by merging
	Seeks       int   // dispatches that moved the head
	SeekBytes   int64 // total absolute head movement
	Bytes       int64
	LongSeeks   int // seeks over 64 MiB ("spikes" in Figure 5c)
	MeanSeekLen float64
}

// Summarize computes the trace summary.
func (r *Recorder) Summarize() Summary {
	var s Summary
	for _, e := range r.Events() {
		s.Dispatches++
		s.Merged += e.Merged
		s.Bytes += e.Length
		if e.SeekLen != 0 {
			s.Seeks++
			s.SeekBytes += e.SeekLen
			if e.SeekLen > 64<<20 {
				s.LongSeeks++
			}
		}
	}
	if s.Seeks > 0 {
		s.MeanSeekLen = float64(s.SeekBytes) / float64(s.Seeks)
	}
	return s
}

// WriteCSV emits a seek series as "t_us,offset,seek" rows, the format the
// plotting notebook (and cmd/redbud-trace) consumes.
func WriteCSV(w io.Writer, pts []SeekPoint) error {
	if _, err := fmt.Fprintln(w, "t_us,offset,seek"); err != nil {
		return err
	}
	for _, p := range pts {
		if _, err := fmt.Fprintf(w, "%d,%d,%d\n", p.T.Microseconds(), p.Offset, p.Seek); err != nil {
			return err
		}
	}
	return nil
}
