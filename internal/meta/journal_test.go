package meta

import (
	"errors"
	"hash/crc32"
	"sync"
	"testing"
	"time"

	"redbud/internal/blockdev"
	"redbud/internal/clock"
	"redbud/internal/wire"
)

func newMetaDev(t *testing.T) *blockdev.Device {
	t.Helper()
	d := blockdev.New(blockdev.Config{Size: 64 << 20, Model: blockdev.ZeroLatency(), Clock: clock.Real(1)})
	t.Cleanup(d.Close)
	return d
}

func TestRecordRoundTrip(t *testing.T) {
	in := &Record{
		Type: RecCommit, File: 42, Parent: 1, Name: "f.dat", FType: TypeFile,
		Owner: "client-3", Size: 12345, MTime: time.Unix(100, 200).UTC(),
		Extents: []Extent{
			{FileOff: 0, Len: 4096, Dev: 2, VolOff: 1 << 20, State: StateCommitted},
			{FileOff: 4096, Len: 100, Dev: 2, VolOff: 9 << 20, State: StateUncommitted},
		},
		SpanDev: 7, SpanOff: 555, SpanLen: 666,
	}
	var out Record
	if err := wire.Decode(wire.Encode(in), &out); err != nil {
		t.Fatal(err)
	}
	if out.Type != in.Type || out.File != in.File || out.Name != in.Name ||
		out.Owner != in.Owner || out.Size != in.Size || !out.MTime.Equal(in.MTime) ||
		len(out.Extents) != 2 || out.Extents[1].VolOff != 9<<20 ||
		out.SpanDev != 7 || out.SpanOff != 555 || out.SpanLen != 666 {
		t.Fatalf("round trip mismatch: %+v", out)
	}
}

func TestExtentListRoundTrip(t *testing.T) {
	var b wire.Buffer
	PutExtents(&b, nil)
	r := wire.NewReader(b.Bytes())
	if got := GetExtents(r); len(got) != 0 || r.Err() != nil {
		t.Fatalf("empty list: %v %v", got, r.Err())
	}
}

func TestJournalAppendReplay(t *testing.T) {
	dev := newMetaDev(t)
	j := NewJournal(dev, 0, 32<<20)
	recs := []*Record{
		{Type: RecCreate, File: 2, Parent: 1, Name: "a", FType: TypeFile},
		{Type: RecAlloc, File: 2, Owner: "c1", Extents: []Extent{{Len: 4096, VolOff: 0}}},
		{Type: RecCommit, File: 2, Owner: "c1", Size: 4096},
	}
	for _, rec := range recs {
		if err := <-j.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	j2 := NewJournal(dev, 0, 32<<20)
	var got []*Record
	if torn, err := j2.Replay(func(r *Record) error {
		cp := *r
		got = append(got, &cp)
		return nil
	}); err != nil || torn {
		t.Fatal(torn, err)
	}
	if len(got) != 3 {
		t.Fatalf("replayed %d records", len(got))
	}
	for i := range recs {
		if got[i].Type != recs[i].Type || got[i].File != recs[i].File {
			t.Fatalf("record %d mismatch: %+v", i, got[i])
		}
	}
	if j2.Tail() != j.Tail() {
		t.Fatalf("tail after replay %d != %d", j2.Tail(), j.Tail())
	}
	// Appends continue the log.
	if err := <-j2.Append(&Record{Type: RecRemove, File: 2, Parent: 1, Name: "a"}); err != nil {
		t.Fatal(err)
	}
	count := 0
	j3 := NewJournal(dev, 0, 32<<20)
	if torn, err := j3.Replay(func(r *Record) error { count++; return nil }); err != nil || torn {
		t.Fatal(torn, err)
	}
	if count != 4 {
		t.Fatalf("after continuation, %d records", count)
	}
}

// TestJournalConcurrentAppendsReplayComplete runs concurrent appenders and
// checks the log is complete, amortized, and replayable: group commit changes
// how records reach the device, never which records the log holds.
func TestJournalConcurrentAppendsReplayComplete(t *testing.T) {
	dev := blockdev.New(blockdev.Config{
		Size:         64 << 20,
		Model:        blockdev.DiskModel{PerRequest: 30 * time.Microsecond, BandwidthMBps: 4000},
		DisableMerge: true,
		Clock:        clock.Real(1),
	})
	t.Cleanup(dev.Close)
	j := NewJournal(dev, 0, 32<<20)

	const writers, per = 8, 25
	var wg sync.WaitGroup
	errs := make(chan error, writers*per)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				errs <- <-j.Append(&Record{Type: RecCommit, File: FileID(w*per + i), Size: int64(i)})
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	appends, batches := j.GroupCommitStats()
	if appends != writers*per {
		t.Fatalf("appends = %d, want %d", appends, writers*per)
	}
	if batches >= appends {
		t.Fatalf("no amortization: %d batches for %d appends", batches, appends)
	}
	seen := map[FileID]bool{}
	torn, err := NewJournal(dev, 0, 32<<20).Replay(func(r *Record) error {
		seen[r.File] = true
		return nil
	})
	if err != nil || torn {
		t.Fatalf("replay: torn=%v err=%v", torn, err)
	}
	if len(seen) != writers*per {
		t.Fatalf("replayed %d distinct records, want %d", len(seen), writers*per)
	}
	t.Logf("appends=%d batches=%d (%.1fx amortization)",
		appends, batches, float64(appends)/float64(batches))
}

func TestJournalFull(t *testing.T) {
	dev := newMetaDev(t)
	j := NewJournal(dev, 0, 100) // tiny journal
	if err := <-j.Append(&Record{Type: RecCreate, Name: "a"}); err != nil {
		t.Fatal(err)
	}
	err := <-j.Append(&Record{Type: RecCreate, Name: "b"})
	if !errors.Is(err, ErrJournalFull) {
		t.Fatalf("err = %v", err)
	}
}

func TestJournalCorruptIsTornTail(t *testing.T) {
	dev := newMetaDev(t)
	j := NewJournal(dev, 0, 1<<20)
	if err := <-j.Append(&Record{Type: RecCreate, Name: "a"}); err != nil {
		t.Fatal(err)
	}
	// Corrupt a payload byte.
	buf, _ := dev.Read(recHeaderSize, 1)
	if err := dev.Write(recHeaderSize, []byte{buf[0] ^ 0xff}); err != nil {
		t.Fatal(err)
	}
	torn, err := NewJournal(dev, 0, 1<<20).Replay(func(*Record) error { return nil })
	if err != nil || !torn {
		t.Fatalf("corrupt journal: torn=%v err=%v, want torn tail", torn, err)
	}
}

func TestJournalBadMagic(t *testing.T) {
	dev := newMetaDev(t)
	if err := dev.Write(0, []byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12}); err != nil {
		t.Fatal(err)
	}
	torn, err := NewJournal(dev, 0, 1<<20).Replay(func(*Record) error { return nil })
	if err != nil || !torn {
		t.Fatalf("bad magic: torn=%v err=%v, want torn tail", torn, err)
	}
}

func TestJournalOverrunLength(t *testing.T) {
	dev := newMetaDev(t)
	var b wire.Buffer
	b.PutU32(journalMagic)
	b.PutU32(0)       // generation
	b.PutU32(1 << 30) // absurd length
	b.PutU32(0)       // crc
	if err := dev.Write(0, b.Bytes()); err != nil {
		t.Fatal(err)
	}
	torn, err := NewJournal(dev, 0, 1<<20).Replay(func(*Record) error { return nil })
	if err != nil || !torn {
		t.Fatalf("overrun length: torn=%v err=%v, want torn tail", torn, err)
	}
}

func TestJournalEmptyReplay(t *testing.T) {
	dev := newMetaDev(t)
	j := NewJournal(dev, 0, 1<<20)
	if torn, err := j.Replay(func(*Record) error { t.Fatal("callback on empty journal"); return nil }); err != nil || torn {
		t.Fatal(torn, err)
	}
	if j.Tail() != 0 {
		t.Fatalf("tail = %d", j.Tail())
	}
}

func TestJournalReplayCallbackError(t *testing.T) {
	dev := newMetaDev(t)
	j := NewJournal(dev, 0, 1<<20)
	<-j.Append(&Record{Type: RecCreate, Name: "a"})
	sentinel := errors.New("stop")
	if _, err := NewJournal(dev, 0, 1<<20).Replay(func(*Record) error { return sentinel }); !errors.Is(err, sentinel) {
		t.Fatalf("err = %v", err)
	}
}

func TestJournalGroupCommitBatches(t *testing.T) {
	// Appends issued while a flush is in flight must coalesce into one
	// device write — even with the elevator's merging disabled, so the
	// amortization is the journal's own, not the device's.
	d := blockdev.New(blockdev.Config{
		Size:         64 << 20,
		Model:        blockdev.DiskModel{SeekBase: 20 * time.Millisecond, BandwidthMBps: 200},
		DisableMerge: true,
		Clock:        clock.Real(0.05),
	})
	defer d.Close()
	// Blocker keeps the head busy while appends accumulate.
	blocker := make(chan error, 1)
	d.WriteAsync(32<<20, make([]byte, 64), func(err error) { blocker <- err })
	j := NewJournal(d, 0, 16<<20)
	var chans []<-chan error
	for i := 0; i < 16; i++ {
		chans = append(chans, j.Append(&Record{Type: RecCommit, File: FileID(i)}))
	}
	<-blocker
	for _, ch := range chans {
		if err := <-ch; err != nil {
			t.Fatal(err)
		}
	}
	appends, batches := j.GroupCommitStats()
	if appends != 16 {
		t.Fatalf("appends = %d, want 16", appends)
	}
	if batches >= appends {
		t.Fatalf("no group commit: %d batches for %d appends", batches, appends)
	}
	// The batched log must replay exactly like a record-at-a-time one.
	count := 0
	if torn, err := NewJournal(d, 0, 16<<20).Replay(func(*Record) error { count++; return nil }); err != nil || torn {
		t.Fatal(torn, err)
	}
	if count != 16 {
		t.Fatalf("replayed %d records, want 16", count)
	}
}

// oldFormatPayload hand-encodes a record the way the pre-sharding build did:
// every field up to DstName, with no NSKind byte. A journal written by that
// build must replay record-for-record on the current one.
func oldFormatPayload(rec *Record) []byte {
	b := wire.NewBuffer(128)
	b.PutU8(uint8(rec.Type))
	b.PutU64(uint64(rec.File))
	b.PutU64(uint64(rec.Parent))
	b.PutString(rec.Name)
	b.PutU8(uint8(rec.FType))
	b.PutString(rec.Owner)
	b.PutI64(rec.Size)
	b.PutTime(rec.MTime)
	PutExtents(b, rec.Extents)
	b.PutU32(rec.SpanDev)
	b.PutI64(rec.SpanOff)
	b.PutI64(rec.SpanLen)
	b.PutU64(uint64(rec.DstParent))
	b.PutString(rec.DstName)
	return b.Bytes()
}

// TestJournalReplaysPreShardingRecords pins the upgrade path: the NSKind
// field is a trailing optional, so records framed without it — the exact
// bytes a pre-sharding MDS wrote — decode cleanly instead of erroring, which
// Replay would misread as a torn tail and silently drop the log from there.
func TestJournalReplaysPreShardingRecords(t *testing.T) {
	dev := newMetaDev(t)
	old := []*Record{
		{Type: RecCreate, File: 2, Parent: RootID, Name: "f", FType: TypeFile, MTime: time.Unix(5, 0).UTC()},
		{Type: RecCommit, File: 2, Owner: "c1", Size: 4096, MTime: time.Unix(6, 0).UTC(),
			Extents: []Extent{{FileOff: 0, Len: 4096, Dev: 1, VolOff: 1 << 20, State: StateCommitted}}},
		{Type: RecDelegate, Owner: "c1", SpanDev: 1, SpanOff: 4096, SpanLen: 1 << 20},
	}
	off := int64(0)
	for _, rec := range old {
		payload := oldFormatPayload(rec)
		hdr := wire.NewBuffer(recHeaderSize)
		hdr.PutU32(journalMagic)
		hdr.PutU32(0) // generation
		hdr.PutU32(uint32(len(payload)))
		hdr.PutU32(crc32.ChecksumIEEE(payload))
		if err := dev.Write(off, hdr.Bytes()); err != nil {
			t.Fatal(err)
		}
		if err := dev.Write(off+recHeaderSize, payload); err != nil {
			t.Fatal(err)
		}
		off += recHeaderSize + int64(len(payload))
	}

	j := NewJournal(dev, 0, 32<<20)
	var got []*Record
	torn, err := j.Replay(func(r *Record) error {
		cp := *r
		got = append(got, &cp)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if torn {
		t.Fatal("old-format log read as torn")
	}
	if len(got) != len(old) {
		t.Fatalf("replayed %d of %d records", len(got), len(old))
	}
	for i, rec := range got {
		if rec.Type != old[i].Type || rec.File != old[i].File || rec.NSKind != 0 {
			t.Fatalf("record %d mismatch: %+v", i, rec)
		}
	}

	// The upgraded MDS appends to the same log; NS records (which do carry
	// the byte) and old records must coexist on a subsequent replay.
	if err := <-j.Append(&Record{Type: RecNSIntent, NSKind: NSRemove, File: 2, FType: TypeFile, Parent: RootID, Name: "f"}); err != nil {
		t.Fatal(err)
	}
	got = got[:0]
	torn, err = NewJournal(dev, 0, 32<<20).Replay(func(r *Record) error {
		cp := *r
		got = append(got, &cp)
		return nil
	})
	if err != nil || torn {
		t.Fatalf("mixed-format replay: torn=%v err=%v", torn, err)
	}
	if len(got) != len(old)+1 {
		t.Fatalf("replayed %d of %d records", len(got), len(old)+1)
	}
	last := got[len(got)-1]
	if last.Type != RecNSIntent || last.NSKind != NSRemove {
		t.Fatalf("appended NS record mismatch: %+v", last)
	}

	// And a record written today with NSKind 0 is byte-identical to the old
	// format — the evolution is symmetric, not just tolerant.
	if enc := wire.Encode(old[0]); string(enc) != string(oldFormatPayload(old[0])) {
		t.Fatal("NSKind-less record encoding diverged from the pre-sharding layout")
	}
}

// A failed journal write leaves a hole that replay reads as the end of the
// log, so the journal is fail-stop: the failed record and every later one are
// refused with ErrJournalFailed, never written past the hole and
// acknowledged. Record 3 is appended after the device has healed; it must
// still be refused, and replay must find exactly record 1.
func TestJournalFailStopsAfterFailedWrite(t *testing.T) {
	for _, tc := range []struct {
		name  string
		fault blockdev.WriteFault
		torn  bool // replay ends at a damaged record, not a zero header
	}{
		{"error", blockdev.WriteError, false},
		{"torn", blockdev.WriteTorn, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dev := newMetaDev(t)
			j := NewJournal(dev, 0, 1<<20)
			if err := <-j.Append(&Record{Type: RecCreate, File: 2, Parent: 1, Name: "a", FType: TypeFile}); err != nil {
				t.Fatal(err)
			}
			dev.SetWriteFault(func(off, n int64) (blockdev.WriteFault, int64) { return tc.fault, n / 2 })
			err := <-j.Append(&Record{Type: RecCreate, File: 3, Parent: 1, Name: "b", FType: TypeFile})
			if !errors.Is(err, ErrJournalFailed) || !errors.Is(err, blockdev.ErrInjected) {
				t.Fatalf("append over the failed write: %v, want ErrJournalFailed wrapping the device error", err)
			}
			dev.SetWriteFault(nil)
			if err := <-j.Append(&Record{Type: RecCreate, File: 4, Parent: 1, Name: "c", FType: TypeFile}); !errors.Is(err, ErrJournalFailed) {
				t.Fatalf("append after the failed write: %v, want ErrJournalFailed", err)
			}
			if _, batches := j.GroupCommitStats(); batches != 2 {
				t.Fatalf("%d device writes, want 2: a record went to the device after the hole", batches)
			}
			var files []FileID
			torn, err := NewJournal(dev, 0, 1<<20).Replay(func(r *Record) error {
				files = append(files, r.File)
				return nil
			})
			if err != nil || torn != tc.torn {
				t.Fatalf("replay: torn %v, err %v; want torn %v", torn, err, tc.torn)
			}
			if len(files) != 1 || files[0] != 2 {
				t.Fatalf("replay found files %v, want [2]", files)
			}
		})
	}
}

// A batch is charged from when its cause ended, not from when its leader
// goroutine woke: every leader here runs 10 ms after the clock passed the
// record's instant, and each batch still starts at the later of the previous
// batch's modeled end and its record's instant. Each waiter learns its own
// batch's modeled end, and the journal counts the lateness it absorbed.
func TestBatchStartsWhenItsCauseEnded(t *testing.T) {
	const st = time.Millisecond // every write's service time
	mc := clock.NewManual()
	dev := blockdev.New(blockdev.Config{Size: 64 << 20, Model: blockdev.DiskModel{PerRequest: st}, Clock: mc})
	defer dev.Close()
	defer mc.Advance(time.Hour)
	j := NewJournal(dev, 0, 1<<20)

	t0 := mc.Now()
	mc.Advance(10 * time.Millisecond)
	for _, step := range []struct {
		rec, want time.Duration // record instant and batch end, after t0
	}{
		{2 * time.Millisecond, 2*time.Millisecond + st}, // idle journal: the record's instant
		{1 * time.Millisecond, 3*time.Millisecond + st}, // the previous batch's end
		{6 * time.Millisecond, 6*time.Millisecond + st}, // the record's instant again
	} {
		ch := make(chan durability, 1)
		j.appendAt(t0.Add(step.rec), &Record{Type: RecCreate, File: 2, Parent: RootID, Name: "f"}, timedWaiter(ch))
		var d durability
		select {
		case d = <-ch:
			if d.err != nil {
				t.Fatal(d.err)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("record from +%v not durable without a clock step: its batch was charged from now", step.rec)
		}
		if end := d.at; !end.Equal(t0.Add(step.want)) {
			t.Fatalf("record from +%v durable at +%v, want +%v", step.rec, end.Sub(t0), step.want)
		}
	}
	if _, batches := j.GroupCommitStats(); batches != 3 {
		t.Fatalf("%d batches, want 3", batches)
	}
	// Submitted at +10ms each, charged from +2, +3 and +6 ms.
	if got, want := j.absorbed.Load(), int64(8*time.Millisecond+7*time.Millisecond+4*time.Millisecond); got != want {
		t.Fatalf("absorbed %v, want %v", time.Duration(got), time.Duration(want))
	}
}
