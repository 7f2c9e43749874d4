package meta

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"redbud/internal/blockdev"
	"redbud/internal/clock"
)

// benchJournalDev models a metadata device with a fixed per-request overhead
// and no elevator merging — the regime where explicit group commit pays: a
// batch of appends coalesced into one device write costs one PerRequest
// instead of one per record. Merging is disabled so the measurement shows the
// journal's own batching rather than the device rescuing it.
func benchJournalDev(b *testing.B) *blockdev.Device {
	b.Helper()
	d := blockdev.New(blockdev.Config{
		Size: 1 << 30,
		Model: blockdev.DiskModel{
			PerRequest:    30 * time.Microsecond,
			BandwidthMBps: 4000,
		},
		DisableMerge: true,
		Clock:        clock.Real(1),
	})
	b.Cleanup(d.Close)
	return d
}

// BenchmarkJournalAppendSteady is the CI-gated steady-state append
// benchmark: concurrent writers against the PerRequest-dominated device. With
// per-record device writes, throughput would be pinned at one PerRequest per
// record no matter how many writers wait; with group commit, appends that
// arrive while a write is in flight share the next one. Beyond the latency
// numbers it asserts the batching actually amortized — at least writers/4
// appends per device batch on average — so a regression that silently
// degrades group commit to record-at-a-time writes fails the benchmark rather
// than just slowing it.
func BenchmarkJournalAppendSteady(b *testing.B) {
	for _, writers := range []int{1, 4, 16} {
		b.Run(fmt.Sprintf("writers=%d", writers), func(b *testing.B) {
			benchJournalAppendSteady(b, writers)
		})
	}
}

func benchJournalAppendSteady(b *testing.B, writers int) {
	dev := benchJournalDev(b)
	j := NewJournal(dev, 0, 1<<29)
	rec := &Record{
		Type: RecCommit, File: 7, Owner: "bench", Size: 4096,
		Extents: []Extent{{FileOff: 0, Len: 4096, Dev: 1, VolOff: 0, State: StateCommitted}},
	}
	b.ReportAllocs()
	b.ResetTimer()
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		n := b.N / writers
		if w < b.N%writers {
			n++
		}
		wg.Add(1)
		go func(n int) {
			defer wg.Done()
			for i := 0; i < n; i++ {
				if err := <-j.Append(rec); err != nil {
					b.Error(err)
					return
				}
			}
		}(n)
	}
	wg.Wait()
	b.StopTimer()
	appends, batches := j.GroupCommitStats()
	if b.N >= writers*8 && batches*int64(writers) > appends*4 {
		b.Fatalf("group commit degraded: %d batches for %d appends (want >= %d appends/batch)",
			batches, appends, writers/4)
	}
	b.ReportMetric(float64(appends)/float64(batches), "appends/batch")
}
