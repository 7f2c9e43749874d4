package main

import (
	"flag"
	"fmt"
	"testing"
	"time"

	"redbud/internal/alloc"
	"redbud/internal/blockdev"
	"redbud/internal/bptree"
	"redbud/internal/client"
	"redbud/internal/clock"
	"redbud/internal/core"
	"redbud/internal/mds"
	"redbud/internal/meta"
	"redbud/internal/netsim"
	"redbud/internal/proto"
	"redbud/internal/rpc"
	"redbud/internal/wire"
)

// The real-cost ledger: what each layer's public calls cost on the host, in
// ns and allocations per call, with every modeled latency set to zero
// (clock.NewManual, blockdev.ZeroLatency, netsim.Instant) so no modeled
// sleep is timed. It is the second of ROADMAP's two ledgers and is
// independent of the workload.

// ledgerEntry is one benchmark. iters is fixed, so the work done (and the
// allocation count) repeats exactly; only the ns vary with the host.
type ledgerEntry struct {
	name   string
	allocs bool // also report <name minus _ns>_allocs
	iters  int
	fn     func(b *testing.B)
}

var ledger = []ledgerEntry{
	{"wire.roundtrip_ns", true, 50000, benchWire},
	{"rpc.call_ns", true, 10000, benchRPCCall},
	{"netsim.sendrecv_ns", false, 50000, benchNetsim},
	{"meta.alloc_commit_ns", true, 5000, benchMetaAllocCommit},
	{"meta.create_remove_ns", false, 5000, benchMetaCreateRemove},
	{"meta.journal_append_ns", false, 5000, benchJournalAppend},
	{"mds.commit_ns", false, 5000, benchMDSCommit},
	{"blockdev.submit4k_ns", false, 10000, benchBlockdev},
	{"alloc.alloc_free_ns", false, 50000, benchAlloc},
	{"bptree.put_ns", false, 100000, benchBptreePut},
	{"bptree.get_ns", false, 100000, benchBptreeGet},
	{"client.write4k_ns", false, 4000, benchClientWrite},
	{"core.queue_ns", false, 100000, benchCoreQueue},
}

// runLedger runs every entry and returns metric name → value. scale divides
// the iteration counts (quick runs use a large one).
func runLedger(scale int) (map[string]float64, error) {
	testing.Init()
	out := make(map[string]float64)
	for _, e := range ledger {
		if err := flag.Set("test.benchtime", fmt.Sprintf("%dx", max(e.iters/scale, 1))); err != nil {
			return nil, err
		}
		r := testing.Benchmark(e.fn)
		if r.N == 0 {
			return nil, fmt.Errorf("ledger benchmark %s failed", e.name)
		}
		out[e.name] = float64(r.T.Nanoseconds()) / float64(r.N)
		if e.allocs {
			out[e.name[:len(e.name)-len("_ns")]+"_allocs"] = float64(r.MemAllocs) / float64(r.N)
		}
	}
	return out, nil
}

func sampleCommitReq() *proto.CommitReq {
	return &proto.CommitReq{
		Owner: "bench", File: 7, Size: 32 << 10, MTime: clock.Epoch, CommitID: 1,
		Extents: []meta.Extent{{FileOff: 0, Len: 32 << 10, Dev: 1, VolOff: 1 << 20, State: meta.StateCommitted}},
	}
}

func benchWire(b *testing.B) {
	req := sampleCommitReq()
	var got proto.CommitReq
	for i := 0; i < b.N; i++ {
		if err := wire.Decode(wire.Encode(req), &got); err != nil {
			b.Fatal(err)
		}
	}
}

// zeroStack is an MDS over a journaled store, reachable over an instant
// network, all on a manual clock that nobody advances.
type zeroStack struct {
	clk   *clock.Manual
	store *meta.Store
	devs  []*blockdev.Device
	conn  *rpc.Client
}

func zeroDevice(b *testing.B, clk clock.Clock, id int) *blockdev.Device {
	d := blockdev.New(blockdev.Config{ID: id, Size: 1 << 34, Model: blockdev.ZeroLatency(), Clock: clk})
	b.Cleanup(d.Close)
	return d
}

// dial starts serve on an instant network's host "s" and connects host "c".
func dial(b *testing.B, clk clock.Clock, serve func(*netsim.Listener)) *rpc.Client {
	n := netsim.NewNetwork(clk)
	n.AddHost("c", netsim.Instant())
	n.AddHost("s", netsim.Instant())
	l, err := n.Listen("s")
	if err != nil {
		b.Fatal(err)
	}
	go serve(l)
	conn, err := n.Dial("c", "s")
	if err != nil {
		b.Fatal(err)
	}
	cli := rpc.NewClient(conn, clk)
	b.Cleanup(func() {
		cli.Close()
		l.Close()
	})
	return cli
}

func newZeroStack(b *testing.B) *zeroStack {
	s := &zeroStack{clk: clock.NewManual()}
	var groups []*alloc.Group
	for i := 0; i < 2; i++ {
		d := zeroDevice(b, s.clk, i)
		s.devs = append(s.devs, d)
		groups = append(groups, alloc.NewGroup(i, 0, d.Size()))
	}
	journal := meta.NewJournal(zeroDevice(b, s.clk, 1000), 0, 2<<30)
	s.store = meta.NewStore(meta.Config{AGs: alloc.NewAGSet(alloc.RoundRobin, groups...), Journal: journal, Clock: s.clk})
	srv := mds.New(mds.Config{Store: s.store, Clock: s.clk, Daemons: 8})
	b.Cleanup(srv.Close)
	s.conn = dial(b, s.clk, func(l *netsim.Listener) { srv.Serve(l) })
	return s
}

func benchRPCCall(b *testing.B) {
	clk := clock.NewManual()
	echo := func(_ uint16, body []byte) ([]byte, error) { return body, nil }
	srv := rpc.NewServer(rpc.ServerConfig{Handler: echo, Daemons: 4, Clock: clk})
	b.Cleanup(srv.Close)
	cli := dial(b, clk, func(l *netsim.Listener) { srv.Serve(l) })
	payload := make([]byte, 128)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := cli.CallRaw(1, payload); err != nil {
			b.Fatal(err)
		}
	}
}

func benchNetsim(b *testing.B) {
	n := netsim.NewNetwork(clock.NewManual())
	n.AddHost("c", netsim.Instant())
	n.AddHost("s", netsim.Instant())
	l, err := n.Listen("s")
	if err != nil {
		b.Fatal(err)
	}
	defer l.Close()
	out, err := n.Dial("c", "s")
	if err != nil {
		b.Fatal(err)
	}
	defer out.Close()
	in, err := l.Accept()
	if err != nil {
		b.Fatal(err)
	}
	frame := make([]byte, 256)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := out.Send(frame); err != nil {
			b.Fatal(err)
		}
		f, err := in.Recv()
		if err != nil {
			b.Fatal(err)
		}
		wire.PutFrame(f)
	}
}

// benchMetaAllocCommit allocates and commits the first 4 KiB of a fresh file
// each iteration: a file's cost grows with its extent count (145 µs and 2 500
// allocations per commit at 5 000 extents), and the workloads' files have
// at most eight.
func benchMetaAllocCommit(b *testing.B) {
	s := newZeroStack(b)
	ids := make([]meta.FileID, b.N)
	for i := range ids {
		attr, err := s.store.Create(meta.RootID, fmt.Sprintf("f%d", i), meta.TypeFile)
		if err != nil {
			b.Fatal(err)
		}
		ids[i] = attr.ID
	}
	b.ResetTimer()
	for _, id := range ids {
		lay, err := s.store.AllocLayout("bench", id, 0, 4096)
		if err != nil {
			b.Fatal(err)
		}
		if err := s.store.Commit("bench", id, lay.Extents, 4096, clock.Epoch); err != nil {
			b.Fatal(err)
		}
	}
}

func benchMetaCreateRemove(b *testing.B) {
	s := newZeroStack(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.store.Create(meta.RootID, "f", meta.TypeFile); err != nil {
			b.Fatal(err)
		}
		if err := s.store.Remove(meta.RootID, "f"); err != nil {
			b.Fatal(err)
		}
	}
}

func benchJournalAppend(b *testing.B) {
	j := meta.NewJournal(zeroDevice(b, clock.NewManual(), 0), 0, 2<<30)
	req := sampleCommitReq()
	rec := &meta.Record{Type: meta.RecCommit, File: req.File, Owner: req.Owner, Size: req.Size, Extents: req.Extents}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := <-j.Append(rec); err != nil {
			b.Fatal(err)
		}
	}
}

func benchMDSCommit(b *testing.B) {
	s := newZeroStack(b)
	attr, err := s.store.Create(meta.RootID, "f", meta.TypeFile)
	if err != nil {
		b.Fatal(err)
	}
	lay, err := s.store.AllocLayout("bench", attr.ID, 0, 32<<10)
	if err != nil {
		b.Fatal(err)
	}
	body := wire.Encode(&proto.CommitReq{Owner: "bench", File: attr.ID, Size: 32 << 10, MTime: clock.Epoch, Extents: lay.Extents})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.conn.CallRaw(proto.OpCommit, body); err != nil {
			b.Fatal(err)
		}
	}
}

func benchBlockdev(b *testing.B) {
	d := zeroDevice(b, clock.NewManual(), 0)
	buf := make([]byte, 4096)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := d.Write(int64(i)*4096, buf); err != nil {
			b.Fatal(err)
		}
	}
}

func benchAlloc(b *testing.B) {
	g := alloc.NewGroup(0, 0, 1<<40)
	for i := 0; i < b.N; i++ {
		sp, err := g.Alloc(4096, -1)
		if err != nil {
			b.Fatal(err)
		}
		if i%2 == 0 { // leave half allocated, as internal/alloc's own benchmark does
			if err := g.FreeSpan(sp.Off, sp.Len); err != nil {
				b.Fatal(err)
			}
		}
	}
}

func benchBptreePut(b *testing.B) {
	tr := bptree.New()
	for i := 0; i < b.N; i++ {
		tr.Put(int64(i*2654435761%(1<<30)), int64(i))
	}
}

func benchBptreeGet(b *testing.B) {
	tr := bptree.New()
	for i := int64(0); i < 100000; i++ {
		tr.Put(i, i)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.Get(int64(i % 100000))
	}
}

// benchClientWrite times a 4 KiB WriteAt on the paper's full path: delayed
// commit with space delegation, so allocation is local and the commit rides
// the background queue.
func benchClientWrite(b *testing.B) {
	s := newZeroStack(b)
	devs := make(map[uint32]client.BlockDevice)
	for _, d := range s.devs {
		devs[uint32(d.ID())] = d
	}
	cl := client.New(client.Config{
		Name: "bench", MDS: s.conn, Devices: devs, Clock: s.clk,
		Mode: client.DelayedCommit, DelegationChunk: 16 << 20, PoolInterval: 2 * time.Millisecond,
	})
	f, err := cl.Create("/f")
	if err != nil {
		b.Fatal(err)
	}
	buf := make([]byte, 4096)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := f.WriteAt(buf, int64(i)*4096); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	if err := f.Close(); err != nil {
		b.Fatal(err)
	}
	if err := cl.Close(); err != nil {
		b.Fatal(err)
	}
}

func benchCoreQueue(b *testing.B) {
	q := core.NewQueue[meta.FileID]()
	for i := 0; i < b.N; i++ {
		q.Enqueue(meta.FileID(i))
		q.Dequeue(1, nil)
	}
}
