package mds

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"redbud/internal/alloc"
	"redbud/internal/blockdev"
	"redbud/internal/clock"
	"redbud/internal/meta"
	"redbud/internal/netsim"
	"redbud/internal/proto"
	"redbud/internal/rpc"
	"redbud/internal/wire"
)

// benchCommitters is the number of concurrent client goroutines (and files)
// hammering the MDS. It exceeds the widest daemon pool so the pool is always
// the constraint under test.
const benchCommitters = 16

// BenchmarkMDSParallelCommit measures end-to-end commit throughput through
// the full RPC + daemon-pool + store + journal stack while sweeping the
// daemon pool width — the axis Figure 7 sweeps. The journal device charges a
// fixed per-write overhead with elevator merging off, so added daemons only
// help if the metadata hot path really admits concurrency: striped inode
// locks let commits to distinct files proceed in parallel, and journal group
// commit folds their records into one device write. A store serialized
// behind one global mutex with one device write per record shows ~no scaling
// here.
func BenchmarkMDSParallelCommit(b *testing.B) {
	for _, daemons := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("daemons=%d", daemons), func(b *testing.B) {
			benchParallelCommit(b, daemons)
		})
	}
}

func benchParallelCommit(b *testing.B, daemons int) {
	clk := clock.Real(1)
	metaDev := blockdev.New(blockdev.Config{
		Size: 1 << 30,
		Model: blockdev.DiskModel{
			PerRequest:    30 * time.Microsecond,
			BandwidthMBps: 4000,
		},
		DisableMerge: true,
		Clock:        clk,
	})
	defer metaDev.Close()
	journal := meta.NewJournal(metaDev, 0, 1<<29)
	ags := alloc.NewUniformAGSet(0, 1<<30, 4)
	store := meta.NewStore(meta.Config{AGs: ags, Journal: journal, Clock: clk})

	srv := New(Config{Store: store, Clock: clk, Daemons: daemons})
	defer srv.Close()
	n := netsim.NewNetwork(clk)
	n.AddHost("c", netsim.Instant())
	n.AddHost("s", netsim.Instant())
	l, err := n.Listen("s")
	if err != nil {
		b.Fatal(err)
	}
	defer l.Close()
	go srv.Serve(l)
	conn, err := n.Dial("c", "s")
	if err != nil {
		b.Fatal(err)
	}
	cli := rpc.NewClient(conn, clk)
	defer cli.Close()

	// One file per committer, with its extent pre-allocated; the measured
	// loop is pure commit traffic (journal append + inode update), the
	// metadata hot path of a delayed-commit burst.
	bodies := make([][]byte, benchCommitters)
	for i := range bodies {
		attr, err := store.Create(meta.RootID, fmt.Sprintf("f%d", i), meta.TypeFile)
		if err != nil {
			b.Fatal(err)
		}
		lay, err := store.AllocLayout("bench", attr.ID, 0, 4096)
		if err != nil {
			b.Fatal(err)
		}
		req := proto.CommitReq{
			Owner: "bench", File: attr.ID, Size: 4096,
			MTime: time.Unix(1, 0).UTC(), Extents: lay.Extents,
		}
		bodies[i] = wire.Encode(&req)
	}

	b.ResetTimer()
	var wg sync.WaitGroup
	for w := 0; w < benchCommitters; w++ {
		iters := b.N / benchCommitters
		if w < b.N%benchCommitters {
			iters++
		}
		wg.Add(1)
		go func(w, iters int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				if _, err := cli.CallRaw(proto.OpCommit, bodies[w]); err != nil {
					b.Error(err)
					return
				}
			}
		}(w, iters)
	}
	wg.Wait()
}
