// Crash recovery: the consistency story behind ordered writes (§I, §III-A).
// A client writes files through the delayed path and crashes mid-stream; the
// MDS then "reboots" — its metadata store is rebuilt purely from the
// journal on the metadata disk — and garbage-collects the orphan space
// (allocations and delegations whose commits never arrived). The example
// verifies the paper's invariant afterwards: every committed extent
// references data that is durable on the array, and no orphan space leaks.
//
//	go run ./examples/crashrecovery
package main

import (
	"fmt"
	"log"

	"redbud/internal/bench"
	"redbud/internal/blockdev"
	"redbud/internal/meta"
)

func main() {
	// One delayed-commit client with space delegation, one MDS, one data
	// disk. The shared array and the metadata disk survive crashes (they are
	// "the disks"); everything in DRAM is lost.
	opt := bench.DefaultOptions()
	opt.Clients = 1
	opt.Scale = 1
	opt.DataDevices = 1
	opt.DeviceSize = 1 << 30
	opt.Disk = blockdev.FastHDD()
	opt.DelegationChunk = 1 << 20
	c := bench.Build(bench.SysRedbudDCSD, opt)
	defer c.Close()
	cl := c.Mounts[0]

	// Write ten files; fsync the first five ("the user saved them"),
	// leave the rest in flight, then pull the plug on the client.
	payload := make([]byte, 8192)
	for i := 0; i < 10; i++ {
		f, err := cl.Create(fmt.Sprintf("/file-%d", i))
		if err != nil {
			log.Fatal(err)
		}
		if _, err := f.WriteAt(payload, 0); err != nil {
			log.Fatal(err)
		}
		if i < 5 {
			if err := f.Sync(); err != nil {
				log.Fatal(err)
			}
		}
		f.Close()
	}
	c.CrashClient(0) // no drain, no delegation return
	fmt.Println("client crashed with 5 fsynced files and 5 files in flight")

	// MDS "reboot": throw the in-memory store away and recover from the
	// journal alone, against a fresh (fully free) AG set.
	c.StopShard(0)
	stats, err := c.RecoverShard(0)
	if err != nil {
		log.Fatal(err)
	}
	recovered := c.Store
	fmt.Printf("recovery replayed %d journal records, reclaimed %d orphan bytes, revoked %d delegations\n",
		stats.Records, stats.OrphanBytes, stats.Delegations)

	// The ordered-write invariant: every committed extent must reference
	// durable data on the array.
	violations := recovered.CheckConsistent(c.Durable)
	fmt.Printf("consistency check: %d violations\n", len(violations))

	// What survived? The fsynced files with their full size; the in-flight
	// files exist (creates are synchronous metadata ops) but any
	// uncommitted data is unreachable orphan space that was recycled.
	survivors := 0
	for i := 0; i < 10; i++ {
		attr, err := recovered.Lookup(meta.RootID, fmt.Sprintf("file-%d", i))
		if err != nil {
			continue
		}
		lay, _ := recovered.GetLayout(attr.ID, 0, 8192)
		if attr.Size == 8192 && len(lay.Extents) > 0 {
			survivors++
		}
	}
	fmt.Printf("%d of 10 files fully durable (>=5 expected: the fsynced ones, plus any whose background commit won the race)\n", survivors)
	if len(violations) != 0 {
		log.Fatal("ordered-write invariant violated")
	}
	fmt.Println("file system consistent after crash + recovery ✓")
}
