package iotrace

import (
	"strings"
	"sync"
	"testing"
	"time"

	"redbud/internal/blockdev"
	"redbud/internal/clock"
)

func ev(t time.Duration, op blockdev.Op, off, n, seek int64, merged int) blockdev.Event {
	return blockdev.Event{T: clock.Epoch.Add(t), Op: op, Offset: off, Length: n, SeekLen: seek, Merged: merged}
}

func TestRecorderBasics(t *testing.T) {
	r := NewRecorder()
	if r.Len() != 0 {
		t.Fatal("new recorder not empty")
	}
	r.Record(ev(0, blockdev.OpWrite, 0, 4096, 0, 0))
	r.Record(ev(time.Millisecond, blockdev.OpWrite, 1<<20, 4096, 1<<20-4096, 2))
	if r.Len() != 2 {
		t.Fatalf("len = %d", r.Len())
	}
	evs := r.Events()
	evs[0].Offset = 999
	if r.Events()[0].Offset == 999 {
		t.Fatal("Events returned a view, not a copy")
	}
	r.Reset()
	if r.Len() != 0 {
		t.Fatal("reset did not clear")
	}
}

func TestRecorderConcurrent(t *testing.T) {
	r := NewRecorder()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 100; j++ {
				r.Record(ev(0, blockdev.OpWrite, 0, 1, 0, 0))
			}
		}()
	}
	wg.Wait()
	if r.Len() != 800 {
		t.Fatalf("len = %d", r.Len())
	}
}

func TestSeekSeriesFiltersReads(t *testing.T) {
	r := NewRecorder()
	r.Record(ev(0, blockdev.OpWrite, 100, 10, 100, 0))
	r.Record(ev(time.Millisecond, blockdev.OpRead, 500, 10, 390, 0))
	r.Record(ev(2*time.Millisecond, blockdev.OpWrite, 110, 10, 400, 0))
	s := r.SeekSeries()
	if len(s) != 2 {
		t.Fatalf("series len = %d, want 2 (reads filtered)", len(s))
	}
	if s[0].T != 0 || s[1].T != 2*time.Millisecond {
		t.Fatalf("timestamps not relative to first event: %+v", s)
	}
	if s[1].Offset != 110 || s[1].Seek != 400 {
		t.Fatalf("series point = %+v", s[1])
	}
}

func TestSeekSeriesEmpty(t *testing.T) {
	if s := NewRecorder().SeekSeries(); s != nil {
		t.Fatalf("empty series = %v", s)
	}
}

func TestSummarize(t *testing.T) {
	r := NewRecorder()
	r.Record(ev(0, blockdev.OpWrite, 0, 4096, 0, 0))         // sequential
	r.Record(ev(0, blockdev.OpWrite, 1<<20, 8192, 1<<20, 3)) // short seek, 3 merged
	r.Record(ev(0, blockdev.OpWrite, 1<<30, 4096, 1<<30, 0)) // long seek (spike)
	s := r.Summarize()
	if s.Dispatches != 3 || s.Merged != 3 || s.Seeks != 2 || s.LongSeeks != 1 {
		t.Fatalf("summary = %+v", s)
	}
	if s.Bytes != 4096+8192+4096 {
		t.Fatalf("bytes = %d", s.Bytes)
	}
	if s.SeekBytes != 1<<20+1<<30 {
		t.Fatalf("seek bytes = %d", s.SeekBytes)
	}
	if s.MeanSeekLen <= 0 {
		t.Fatalf("mean seek = %v", s.MeanSeekLen)
	}
}

func TestSummarizeEmpty(t *testing.T) {
	s := NewRecorder().Summarize()
	if s.Dispatches != 0 || s.MeanSeekLen != 0 {
		t.Fatalf("empty summary = %+v", s)
	}
}

func TestWriteCSV(t *testing.T) {
	r := NewRecorder()
	r.Record(ev(0, blockdev.OpWrite, 4096, 100, 4096, 0))
	r.Record(ev(1500*time.Microsecond, blockdev.OpWrite, 8192, 100, 0, 1))
	var sb strings.Builder
	if err := WriteCSV(&sb, r.SeekSeries()); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(sb.String()), "\n")
	if len(lines) != 3 {
		t.Fatalf("csv lines = %d: %q", len(lines), sb.String())
	}
	if lines[0] != "t_us,offset,seek" {
		t.Fatalf("header = %q", lines[0])
	}
	if lines[2] != "1500,8192,0" {
		t.Fatalf("row = %q", lines[2])
	}
}

// TestAgainstLiveDevice wires a recorder to a real simulated device and
// checks the recorded trace matches device stats.
func TestAgainstLiveDevice(t *testing.T) {
	r := NewRecorder()
	d := blockdev.New(blockdev.Config{Size: 1 << 24, Model: blockdev.ZeroLatency(), Clock: clock.Real(1), Trace: r.Record})
	defer d.Close()
	for i := 0; i < 10; i++ {
		if err := d.Write(int64(i)*1<<20, make([]byte, 4096)); err != nil {
			t.Fatal(err)
		}
	}
	s := d.Stats()
	sum := r.Summarize()
	if int64(sum.Dispatches) != s.Dispatched {
		t.Fatalf("trace dispatches %d != device %d", sum.Dispatches, s.Dispatched)
	}
	if int64(sum.Seeks) != s.Seeks {
		t.Fatalf("trace seeks %d != device %d", sum.Seeks, s.Seeks)
	}
}
