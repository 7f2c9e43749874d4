// Command redbud-mds runs the Redbud metadata server over real TCP — the
// multi-process deployment. It manages the disk array's allocation groups,
// journals metadata on a simulated metadata disk (with checkpoint-based log
// compaction), recovers from the journal at startup, and garbage-collects
// orphan space from expired client leases. Clients reach file data through
// redbud-disk servers.
//
//	redbud-disk -listen :9001 -dev 0 &
//	redbud-mds  -listen :9000 -devices 1 &
//	redbud-client -mds :9000 -disk 0=:9001 put /hello.txt "hi there"
package main

import (
	"flag"
	"fmt"
	"log"
	"net"
	"strings"
	"time"

	"redbud/internal/alloc"
	"redbud/internal/blockdev"
	"redbud/internal/clock"
	"redbud/internal/mds"
	"redbud/internal/meta"
	"redbud/internal/netsim"
	"redbud/internal/obs"
	"redbud/internal/obs/agg"
	"redbud/internal/obs/debughttp"
)

func main() {
	var (
		listen     = flag.String("listen", ":9000", "TCP listen address")
		devices    = flag.Int("devices", 1, "number of data devices in the array")
		devSize    = flag.Int64("dev-size", 16<<30, "capacity of each data device (bytes)")
		agsPer     = flag.Int("ags", 2, "allocation groups per device")
		daemons    = flag.Int("daemons", 8, "server daemon threads")
		lease      = flag.Duration("lease", time.Minute, "client lease timeout (0 disables)")
		checkpoint = flag.Duration("checkpoint", 5*time.Minute, "journal checkpoint period (0 disables)")
		debugAddr  = flag.String("debug", "", "debug HTTP listen address (/metrics, /debug/trace, pprof; empty disables)")
		traceCap   = flag.Int("trace-cap", 0, "commit-span ring capacity with -debug (0 = default)")
		shard      = flag.String("shard", "", "shard coordinates i/N of a sharded namespace (e.g. 0/4; empty runs the single MDS)")
		peers      = flag.String("peers", "", "comma-separated debug addresses of every shard (own included, shard order); this daemon then aggregates the cluster view at /cluster/metrics and evaluates the SLO rules")
	)
	flag.Parse()

	shardIdx, shardCount := 0, 1
	if *shard != "" {
		if _, err := fmt.Sscanf(*shard, "%d/%d", &shardIdx, &shardCount); err != nil ||
			shardCount < 1 || shardIdx < 0 || shardIdx >= shardCount {
			log.Fatalf("-shard %q: want i/N with 0 <= i < N", *shard)
		}
	}

	clk := clock.Real(1)
	reg := obs.NewRegistry()
	var tracer *obs.Tracer
	if *debugAddr != "" {
		tracer = obs.NewTracer(*traceCap)
	}
	// The metadata disk lives inside the MDS process: superblock plus two
	// alternating journal regions, recovered at startup.
	metaDev := blockdev.New(blockdev.Config{ID: 1000, Size: 4 << 30, Model: blockdev.DefaultHDD(), Clock: clk, Tracer: tracer})
	logset, journal, err := meta.OpenLogSet(metaDev, 1<<30)
	if err != nil {
		log.Fatal(err)
	}
	// With -shard i/N each shard owns a disjoint slice of every data
	// device: shards are independent metadata authorities over one shared
	// array, and their allocators must never hand out overlapping extents.
	store, rstats, err := meta.Recover(meta.Config{
		AGs:     alloc.NewShardAGSet(*devices, *devSize, shardIdx, shardCount, *agsPer),
		Journal: journal, Clock: clk, Tracer: tracer,
		Shard: shardIdx, ShardCount: shardCount,
	})
	if err != nil {
		log.Fatal(err)
	}
	if rstats.Records > 0 {
		log.Printf("recovered %d journal records (%d files, %d orphan bytes reclaimed, torn=%v)",
			rstats.Records, rstats.Files, rstats.OrphanBytes, rstats.Torn)
	}

	srv := mds.New(mds.Config{
		Store: store, Clock: clk, Daemons: *daemons, LeaseTimeout: *lease, Tracer: tracer,
		ShardIndex: uint32(shardIdx), ShardCount: uint32(shardCount),
	})
	defer srv.Close()
	srv.RegisterMetrics(reg)
	metaDev.RegisterMetrics(reg)

	if *debugAddr != "" {
		dcfg := debughttp.Config{Addr: *debugAddr, Registry: reg, Tracer: tracer}
		// With -peers this daemon carries the cluster aggregation plane: it
		// scrapes every listed shard's /metrics.json (its own included — HTTP
		// keeps one code path), merges, and evaluates the SLO rules on each
		// /cluster/metrics request. The alert states register into the local
		// registry so plain /metrics shows them too.
		if *peers != "" {
			var sources []agg.Source
			for i, addr := range strings.Split(*peers, ",") {
				sources = append(sources, agg.HTTPSource(fmt.Sprintf("mds%d", i), strings.TrimSpace(addr)))
			}
			slo := agg.NewEngine(agg.DefaultRules())
			slo.RegisterMetrics(reg)
			dcfg.Collector = agg.New(sources...)
			dcfg.SLO = slo
		}
		dbg, err := debughttp.Start(dcfg)
		if err != nil {
			log.Fatal(err)
		}
		defer dbg.Close()
		log.Printf("debug HTTP on http://%s/ (curl /metrics for Prometheus text)", dbg.Addr())
	}

	if *lease > 0 {
		go func() {
			for {
				clk.Sleep(*lease / 2)
				if reclaimed := srv.ExpireLeases(); reclaimed > 0 {
					log.Printf("lease GC reclaimed %d orphan bytes", reclaimed)
				}
			}
		}()
	}
	if *checkpoint > 0 {
		go func() {
			for {
				clk.Sleep(*checkpoint)
				if err := store.CheckpointTo(logset); err != nil {
					log.Printf("checkpoint failed: %v", err)
				} else {
					log.Printf("checkpointed journal (generation %d)", logset.Generation())
				}
			}
		}()
	}

	l, err := net.Listen("tcp", *listen)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("redbud-mds listening on %s (%d devices, %d daemons, shard %d/%d, gen %d)\n",
		l.Addr(), *devices, *daemons, shardIdx, shardCount, logset.Generation())
	for {
		conn, err := l.Accept()
		if err != nil {
			log.Fatal(err)
		}
		go srv.ServeConn(netsim.FrameConn(conn))
	}
}
