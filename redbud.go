// Package redbud is the public face of the Redbud delayed-commit
// reproduction: a block-based parallel file system (clients obtain extent
// layouts from a metadata server and write file data directly on a shared
// disk array) implementing the Delayed Commit Protocol of Lu et al.,
// "Accelerating Distributed Updates with Asynchronous Ordered Writes in a
// Parallel File System" (IEEE CLUSTER 2012).
//
// The package assembles an in-process simulated cluster — MDS, disk array,
// metadata Ethernet — and hands out mounted client file systems:
//
//	cluster, err := redbud.New(redbud.Config{Clients: 2, Mode: redbud.DelayedCommit})
//	defer cluster.Close()
//	fs := cluster.Mount(0)
//	f, _ := fs.Create("/hello.txt")
//	f.WriteAt([]byte("hi"), 0)
//	f.Close() // returns immediately; commit daemons keep the write order
//
// For the paper's experiments (Figures 3-7) see cmd/redbud-bench and the
// benchmarks in bench_test.go; for a real multi-process deployment over TCP
// see cmd/redbud-mds, cmd/redbud-disk and cmd/redbud-client.
package redbud

import (
	"fmt"
	"strings"
	"time"

	"redbud/internal/bench"
	"redbud/internal/blockdev"
	"redbud/internal/client"
	"redbud/internal/fsapi"
	"redbud/internal/meta"
)

// Re-exported file-system types: the API every mount speaks.
type (
	// FileSystem is a mounted client view (Create/Open/Mkdir/...).
	FileSystem = fsapi.FileSystem
	// File is an open file handle (WriteAt/ReadAt/Append/Sync/Close).
	File = fsapi.File
	// Info describes a file or directory.
	Info = fsapi.Info
)

// Errors re-exported from the file-system API.
var (
	ErrNotExist = fsapi.ErrNotExist
	ErrExist    = fsapi.ErrExist
	ErrIsDir    = fsapi.ErrIsDir
	ErrNotEmpty = fsapi.ErrNotEmpty
	ErrInvalid  = fsapi.ErrInvalid
	ErrClosed   = fsapi.ErrClosed
)

// Layout protocol types, re-exported so tooling outside the module's
// internal packages has one public entry point to the extent map.
type (
	// ExtentState is an extent's commit status.
	ExtentState = meta.ExtentState
	// Extent is one <file offset, length, device, volume offset, state>
	// mapping.
	Extent = meta.Extent
	// Layout is the extent collection covering a file range.
	Layout = meta.Layout
)

// Extent states.
const (
	// StateUncommitted marks an extent whose commit has not landed yet.
	StateUncommitted = meta.StateUncommitted
	// StateCommitted marks a durably committed extent.
	StateCommitted = meta.StateCommitted
)

// Mode selects the update protocol.
type Mode = client.Mode

// Update modes: the original synchronous ordered writes, or the paper's
// delayed commit.
const (
	SyncCommit    = client.SyncCommit
	DelayedCommit = client.DelayedCommit
)

// Config describes the simulated cluster.
type Config struct {
	// Clients is the number of mounted clients (default 1; the paper's
	// testbed uses 7).
	Clients int
	// Mode selects synchronous or delayed commit. The zero value is
	// SyncCommit, original Redbud.
	Mode Mode
	// SpaceDelegation enables the per-client double-space-pool with the
	// given chunk size; 0 disables delegation. The paper uses 16 MiB. It
	// needs DelayedCommit: New refuses it with SyncCommit.
	SpaceDelegation int64
	// TimeScale compresses simulated time: 0.02 runs the cluster's virtual
	// clocks 50x faster than wall time. Default 1 (real time) — all
	// simulated latencies are then real waits.
	TimeScale float64
	// DataDevices is the number of disks in the shared array (default 4).
	DataDevices int
	// MDSDaemons is the metadata server's worker pool size (default 8).
	MDSDaemons int
	// CompoundDegree pins the commit compound degree; 0 = adaptive.
	CompoundDegree int
	// FastDevices swaps the realistic 2012-era HDD model for a light one,
	// for functional use where latency realism is not wanted.
	FastDevices bool
	// Shards partitions the metadata namespace across this many MDS
	// instances (default 1). Each shard is a complete metadata authority
	// with its own journal; clients route per inode by the hash partition
	// and drive cross-shard creates, removes and renames with the
	// two-phase intent protocol. With SpaceDelegation each client keeps
	// one space pool per shard and carves a file's space from its home
	// shard's.
	Shards int
}

// Cluster is a running simulated deployment.
type Cluster struct {
	inner *bench.Cluster
}

// New assembles and starts a cluster.
func New(cfg Config) (*Cluster, error) {
	if cfg.Mode == SyncCommit && cfg.SpaceDelegation > 0 {
		return nil, fmt.Errorf("redbud: SpaceDelegation needs Mode DelayedCommit")
	}
	opt := bench.DefaultOptions()
	if cfg.Clients > 0 {
		opt.Clients = cfg.Clients
	} else {
		opt.Clients = 1
	}
	if cfg.TimeScale > 0 {
		if cfg.TimeScale > 1 {
			return nil, fmt.Errorf("redbud: TimeScale %v out of (0, 1]", cfg.TimeScale)
		}
		opt.Scale = cfg.TimeScale
	} else {
		opt.Scale = 1
	}
	if cfg.DataDevices > 0 {
		opt.DataDevices = cfg.DataDevices
	}
	if cfg.MDSDaemons > 0 {
		opt.MDSDaemons = cfg.MDSDaemons
	}
	opt.CompoundDegree = cfg.CompoundDegree
	opt.DelegationChunk = cfg.SpaceDelegation
	opt.Shards = cfg.Shards
	if cfg.FastDevices {
		opt.Disk = blockdev.FastHDD()
		opt.MDSOpCost = 0
	}

	sys := bench.SysRedbudDC
	if cfg.Mode == SyncCommit {
		sys = bench.SysRedbud
	} else if cfg.SpaceDelegation > 0 {
		sys = bench.SysRedbudDCSD
	}
	return &Cluster{inner: bench.Build(sys, opt)}, nil
}

// Mount returns client i's file system.
func (c *Cluster) Mount(i int) FileSystem { return c.inner.Mounts[i] }

// Mounts returns every client file system.
func (c *Cluster) Mounts() []FileSystem { return c.inner.Mounts }

// Client returns the underlying Redbud client i, exposing its statistics
// (commit queue length, RPC counts, delegation usage).
func (c *Cluster) Client(i int) *client.Client { return c.inner.Redbud[i] }

// Drain blocks until every pending delayed commit has been applied.
func (c *Cluster) Drain() { c.inner.Drain() }

// FileLayout resolves path on the metadata server and returns the committed
// extent layout of [off, off+n). It never allocates.
func (c *Cluster) FileLayout(path string, off, n int64) (Layout, error) {
	// Dirents live on the parent's home shard and layouts on the file's, so
	// every step routes by the hash partition (with one shard both stores
	// collapse to the single authority).
	stores := c.inner.Stores
	id := meta.RootID
	for _, part := range strings.Split(path, "/") {
		if part == "" {
			continue
		}
		attr, err := stores[meta.ShardOf(id, len(stores))].Lookup(id, part)
		if err != nil {
			return Layout{}, err
		}
		id = attr.ID
	}
	return stores[meta.ShardOf(id, len(stores))].GetLayout(id, off, n)
}

// Stats summarizes cluster-wide activity.
type Stats struct {
	// Disk array counters.
	DiskSubmitted, DiskDispatched, DiskMerged int64
	DiskSeeks                                 int64
	BytesRead, BytesWritten                   int64
	DiskBusy                                  time.Duration
	// Total metadata RPC frames sent by clients.
	RPCs int64
}

// Stats snapshots the cluster counters.
func (c *Cluster) Stats() Stats {
	d := c.inner.DeviceStats()
	return Stats{
		DiskSubmitted:  d.Submitted,
		DiskDispatched: d.Dispatched,
		DiskMerged:     d.Merged,
		DiskSeeks:      d.Seeks,
		BytesRead:      d.BytesRead,
		BytesWritten:   d.BytesWrite,
		DiskBusy:       d.BusyTime,
		RPCs:           c.inner.RPCs(),
	}
}

// Close unmounts every client and tears the cluster down. Pending delayed
// commits are flushed first (unmount semantics).
func (c *Cluster) Close() { c.inner.Close() }
