package obs_test

import (
	"bytes"
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"

	"redbud/internal/bench"
	"redbud/internal/blockdev"
	"redbud/internal/clock"
	"redbud/internal/meta"
	"redbud/internal/netsim"
	"redbud/internal/obs"
)

// manualCluster builds a single-client, synchronous-commit Redbud cluster on
// a manual clock — zero-latency devices, instant links, one MDS daemon per
// shard with a fixed per-op cost — and a driver goroutine that advances the
// clock to the next deadline whenever anything sleeps. The shape is chosen so
// at most one goroutine sleeps on the clock at a time (every other actor is
// blocked on a channel handoff), which makes the span timeline, not just the
// span multiset, reproducible. The returned function tears both down.
func manualCluster(shards, spanCap int) (*bench.Cluster, func()) {
	clk := clock.NewManual()
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if !clk.AdvanceToNext() {
				runtime.Gosched()
			}
		}
	}()
	c := bench.Build(bench.SysRedbud, bench.Options{
		Clients:      1,
		Clock:        clk,
		DataDevices:  shards,
		DeviceSize:   1 << 30,
		Disk:         blockdev.ZeroLatency(),
		Net:          netsim.Instant(),
		MDSDaemons:   1,
		MDSOpCost:    40 * time.Microsecond,
		SpanTrace:    true,
		SpanTraceCap: spanCap,
		Shards:       shards,
	})
	return c, func() {
		c.Close()
		close(stop)
		wg.Wait()
	}
}

// tracedRun runs a fixed write workload on the one-shard fixture and returns
// the Chrome-trace export bytes.
func tracedRun(t *testing.T) []byte {
	t.Helper()
	c, closeAll := manualCluster(1, 0)
	cl, tracer := c.Redbud[0], c.Tracer

	payload := make([]byte, 4<<10)
	for i := range payload {
		payload[i] = byte(i)
	}
	for i := 0; i < 8; i++ {
		f, err := cl.Create(fmt.Sprintf("/f%d", i))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := f.WriteAt(payload, 0); err != nil {
			t.Fatal(err)
		}
		if err := f.Close(); err != nil {
			t.Fatal(err)
		}
	}

	if err := cl.Close(); err != nil {
		t.Fatal(err)
	}
	closeAll()

	var buf bytes.Buffer
	if err := obs.WriteChromeTrace(&buf, tracer.Spans()); err != nil {
		t.Fatal(err)
	}
	if tracer.Dropped() != 0 {
		t.Fatalf("ring overflowed (%d dropped): grow the cap so runs compare fully", tracer.Dropped())
	}
	return buf.Bytes()
}

// stitchedRun drives the three cross-shard namespace sagas (create, rename,
// remove) on the two-shard fixture, through names the placement hash provably
// routes across shards. It returns the stitched multi-process Chrome-trace
// export.
func stitchedRun(t *testing.T) []byte {
	t.Helper()
	const shards = 2
	c, closeAll := manualCluster(shards, 1<<14)
	cl, tracer, stores := c.Redbud[0], c.Tracer, c.Stores

	// Two directories provably homed on different shards, found by the same
	// placement hash the client routes by — deterministic across runs.
	rootStore := stores[meta.ShardOf(meta.RootID, shards)]
	var srcID, dstID meta.FileID
	var srcName, dstName string
	for i := 0; i < 32 && (srcID == 0 || dstID == 0); i++ {
		name := fmt.Sprintf("d%d", i)
		if err := cl.Mkdir("/" + name); err != nil {
			t.Fatal(err)
		}
		attr, err := rootStore.Lookup(meta.RootID, name)
		if err != nil {
			t.Fatal(err)
		}
		switch meta.ShardOf(attr.ID, shards) {
		case 0:
			if srcID == 0 {
				srcID, srcName = attr.ID, name
			}
		default:
			if dstID == 0 {
				dstID, dstName = attr.ID, name
			}
		}
	}
	if srcID == 0 || dstID == 0 {
		t.Fatal("placement hash never separated two directories; fixture broken")
	}
	// A file name the hash places away from its parent's shard: its create
	// is the two-phase mint/link saga, not a local insert.
	var fname string
	for i := 0; i < 64; i++ {
		n := fmt.Sprintf("f%d", i)
		if meta.PlaceShard(srcID, n, shards) != meta.ShardOf(srcID, shards) {
			fname = n
			break
		}
	}
	if fname == "" {
		t.Fatal("placement hash never crossed shards for a child name")
	}

	payload := make([]byte, 4<<10)
	for i := range payload {
		payload[i] = byte(i)
	}
	f, err := cl.Create("/" + srcName + "/" + fname)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt(payload, 0); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	// Cross-shard rename: different parent shards drive the four-phase
	// prepare/commit protocol.
	if err := cl.Rename("/"+srcName+"/"+fname, "/"+dstName+"/g"); err != nil {
		t.Fatal(err)
	}
	// A second cross-placed file, then its removal: a file homed away from
	// its parent runs the prepare/unlink/graduate saga on delete.
	var rname string
	for i := 64; i < 128; i++ {
		n := fmt.Sprintf("f%d", i)
		if meta.PlaceShard(srcID, n, shards) != meta.ShardOf(srcID, shards) {
			rname = n
			break
		}
	}
	if rname == "" {
		t.Fatal("placement hash never crossed shards for the remove fixture")
	}
	rf, err := cl.Create("/" + srcName + "/" + rname)
	if err != nil {
		t.Fatal(err)
	}
	if err := rf.Close(); err != nil {
		t.Fatal(err)
	}
	if err := cl.Remove("/" + srcName + "/" + rname); err != nil {
		t.Fatal(err)
	}

	if err := cl.Close(); err != nil {
		t.Fatal(err)
	}
	closeAll()

	var buf bytes.Buffer
	if err := obs.WriteChromeTraceMulti(&buf, obs.SplitProcesses(tracer.Spans())); err != nil {
		t.Fatal(err)
	}
	if tracer.Dropped() != 0 {
		t.Fatalf("ring overflowed (%d dropped): grow the cap so runs compare fully", tracer.Dropped())
	}
	return buf.Bytes()
}

// TestStitchedTraceRunTwiceByteIdentical is the cross-shard determinism
// acceptance test: two runs of the two-shard saga fixture export
// byte-identical stitched multi-process traces, and the export carries every
// layer of each saga — the client-side roots and phases and the per-shard
// server handler spans they link to.
func TestStitchedTraceRunTwiceByteIdentical(t *testing.T) {
	a := stitchedRun(t)
	b := stitchedRun(t)
	for _, want := range []string{
		obs.SpanNSCreate, obs.SpanNSMint, obs.SpanNSLink, // create saga
		obs.SpanNSRename, obs.SpanNSPrepareSrc, obs.SpanNSCommitDst, // rename saga
		obs.SpanNSRemove, obs.SpanNSUnlink, obs.SpanNSGraduate, // remove saga
		obs.SpanMDSCreateDetached, obs.SpanMDSNSPrepare, obs.SpanMDSNSCommit, // server handlers
		`"mds0"`, `"mds1"`, `"client-0"`, // one trace process per node
	} {
		if !bytes.Contains(a, []byte(want)) {
			t.Errorf("stitched trace missing %q", want)
		}
	}
	if !bytes.Equal(a, b) {
		la, lb := bytes.Split(a, []byte(",")), bytes.Split(b, []byte(","))
		n := min(len(la), len(lb))
		for i := 0; i < n; i++ {
			if !bytes.Equal(la[i], lb[i]) {
				t.Fatalf("stitched exports differ (first divergence at field %d):\n  run1: %s\n  run2: %s", i, la[i], lb[i])
			}
		}
		t.Fatalf("stitched exports differ in length: %d vs %d fields", len(la), len(lb))
	}
}

// TestTraceRunTwiceByteIdentical is the determinism acceptance test: two
// runs of the same seeded cluster export byte-identical trace JSON.
func TestTraceRunTwiceByteIdentical(t *testing.T) {
	a := tracedRun(t)
	b := tracedRun(t)
	if len(a) == 0 || !bytes.Contains(a, []byte(obs.SpanCommitRPC)) {
		t.Fatalf("trace missing commit spans:\n%.400s", a)
	}
	if !bytes.Equal(a, b) {
		la, lb := bytes.Split(a, []byte(",")), bytes.Split(b, []byte(","))
		n := min(len(la), len(lb))
		for i := 0; i < n; i++ {
			if !bytes.Equal(la[i], lb[i]) {
				t.Fatalf("trace exports differ (first divergence at field %d):\n  run1: %s\n  run2: %s", i, la[i], lb[i])
			}
		}
		t.Fatalf("trace exports differ in length: %d vs %d fields", len(la), len(lb))
	}
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
