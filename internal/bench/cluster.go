// Package bench is the experiment harness: it assembles in-process clusters
// of the four systems under test (PVFS2-like, NFS3-like, original Redbud,
// Redbud with delayed commit ± space delegation), runs the paper's
// workloads on them, and regenerates every table and figure of the
// evaluation section (Figures 3-7) plus the ablation studies DESIGN.md
// calls out.
package bench

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"redbud/internal/alloc"
	"redbud/internal/baseline"
	"redbud/internal/blockdev"
	"redbud/internal/client"
	"redbud/internal/clock"
	"redbud/internal/fsapi"
	"redbud/internal/iotrace"
	"redbud/internal/mds"
	"redbud/internal/meta"
	"redbud/internal/netsim"
	"redbud/internal/obs"
	"redbud/internal/obs/agg"
	"redbud/internal/rpc"
	"redbud/internal/workload"
)

// System identifies one configuration under test.
type System int

// Systems of Figure 3 (and the Redbud configurations of Figures 4-7).
const (
	SysPVFS2 System = iota
	SysNFS3
	SysRedbud     // original Redbud: synchronous commit
	SysRedbudDC   // + delayed commit
	SysRedbudDCSD // + delayed commit + space delegation
)

func (s System) String() string {
	switch s {
	case SysPVFS2:
		return "pvfs2"
	case SysNFS3:
		return "nfs3"
	case SysRedbud:
		return "redbud"
	case SysRedbudDC:
		return "redbud+dc"
	case SysRedbudDCSD:
		return "redbud+dc+sd"
	}
	return "?"
}

// Options sets the cluster scale and fidelity knobs shared by all figures.
type Options struct {
	// Clients is the number of client nodes (the paper uses 7).
	Clients int
	// Scale compresses virtual time for wall-clock speed: 0.02 runs the
	// cluster 50x faster than real time while keeping every relative
	// latency intact. Reported numbers are always virtual-time.
	Scale float64
	// Clock replaces the wall clock compressed by Scale, which nil selects:
	// the determinism fixtures run on a clock.Manual.
	Clock clock.Clock
	// SizeFactor scales workload op counts in (0, 1]; bench targets use
	// small factors, `redbud-bench` uses 1.
	SizeFactor float64
	// DataDevices is the number of disks in the shared FC array.
	DataDevices int
	// DeviceSize is the capacity of each disk.
	DeviceSize int64
	// Disk is the service-time model of each disk, journal disks included.
	Disk blockdev.DiskModel
	// Net is the metadata-Ethernet link model.
	Net netsim.LinkConfig
	// MDSDaemons is the metadata server daemon-thread count.
	MDSDaemons int
	// MDSOpCost is the CPU cost of one metadata op at the server.
	MDSOpCost time.Duration
	// MDSFrameCost is the per-RPC-frame overhead at the server; the
	// saving compound RPCs buy (Figure 7).
	MDSFrameCost time.Duration
	// LeaseTimeout enables MDS lease expiry (0 disables it).
	LeaseTimeout time.Duration
	// CommitCheck audits every commit any MDS shard applies against what
	// the data devices have made durable — the ordered-write rule. A commit
	// over non-durable data is refused and recorded (Cluster.Violations).
	CommitCheck bool
	// CompoundDegree pins the Redbud compound degree (0 = adaptive).
	CompoundDegree int
	// DelegationChunk is the space-delegation unit (paper: 16 MiB).
	DelegationChunk int64
	// Retry is the Redbud clients' fault-tolerance policy. The zero value
	// waits forever for a reply and retries only over a dead connection, so
	// a cluster whose shards get restarted wants Retry.CallTimeout > 0: a
	// request the crashed server had queued is never answered. A zero
	// Retry.Seed is derived per client from Seed.
	Retry client.RetryPolicy
	// Seed drives all randomness.
	Seed int64
	// Trace attaches a blktrace recorder to the data devices.
	Trace bool
	// SpanTrace attaches a commit-lifecycle span tracer to every layer of a
	// Redbud cluster (devices, network, MDS, store, clients).
	SpanTrace bool
	// SpanTraceCap bounds the span ring (0 = obs.DefaultTraceCap).
	SpanTraceCap int
	// Tracer attaches a span ring the caller owns instead (SpanTrace and
	// SpanTraceCap are then ignored).
	Tracer *obs.Tracer

	// Ablation knobs, applied to Redbud delayed-commit clients (and, for
	// DisableMerge, to every data device); TestVirtualAblations pins a cell
	// each moves.
	FixedCommitThreads int
	CommitEvenIfClean  bool
	DisableMerge       bool

	// Shards partitions the metadata namespace across this many MDS
	// instances (<= 1 keeps the classic single MDS). Each shard runs its
	// own daemon pool, store and journal device, and splits the shared
	// array's allocation groups with the others; clients route per inode
	// via the hash partition. With space delegation each shard delegates
	// chunks of its own slice, and a client carves a file's space from its
	// home shard's pool.
	Shards int
}

// DefaultOptions mirrors the paper's testbed at simulation scale.
func DefaultOptions() Options {
	return Options{
		Clients:         7,
		Scale:           0.02,
		SizeFactor:      1,
		DataDevices:     4,
		DeviceSize:      16 << 30,
		Disk:            blockdev.DefaultHDD(),
		Net:             netsim.GigabitEthernet(),
		MDSDaemons:      8,
		MDSOpCost:       15 * time.Microsecond,
		MDSFrameCost:    35 * time.Microsecond,
		DelegationChunk: 16 << 20,
		Seed:            1,
	}
}

// TestOptions shrinks everything for fast test/bench runs.
func TestOptions() Options {
	o := DefaultOptions()
	o.Clients = 3
	o.Scale = 0.002
	o.SizeFactor = 0.1
	return o
}

// Cluster is one assembled system: mounts, devices, metadata authorities.
type Cluster struct {
	System  System
	Clock   clock.Clock
	Mounts  []fsapi.FileSystem
	Devices []*blockdev.Device
	Rec     *iotrace.Recorder

	// Redbud-only handles (nil otherwise). The slices hold every metadata
	// shard in shard order; the shard lifecycle (StopShard, RecoverShard,
	// ServeShard) replaces their elements, so re-read them after a restart.
	// Store, MetaDev and AGTotal are shard 0's — the whole cluster when
	// Options.Shards <= 1. AGTotals is the capacity each shard's AG set
	// spans (fsck identity). Clients are named "client-<i>".
	Redbud   []*client.Client
	Net      *netsim.Network
	MDSs     []*mds.Server
	Stores   []*meta.Store
	AGTotals []int64
	Store    *meta.Store
	MetaDev  *blockdev.Device
	AGTotal  int64

	// Tracer is the commit-lifecycle span ring (nil unless Options.SpanTrace
	// or Options.Tracer; Redbud systems only). Registry names every counter
	// of a Redbud cluster and is always built. It exports only shard 0's
	// first MDS incarnation (the fixed server metric names would collide);
	// Collector aggregates every shard's live incarnation — one fresh
	// registry per ServeShard — plus every client into the shard-tagged
	// cluster view.
	Tracer    *obs.Tracer
	Registry  *obs.Registry
	Collector *agg.Collector

	opt        Options
	shards     []*shard
	devMap     map[uint32]client.BlockDevice // the array as every client sees it
	clientsReg *obs.Registry

	mu         sync.Mutex // guards violations and each shard's reg
	violations []string

	closers []func()
}

// shard is what outlives one metadata server: the journal disk and the host
// address survive a crash, incarnation counts the servers started on them.
type shard struct {
	host        string
	metaDev     *blockdev.Device
	lis         *netsim.Listener
	incarnation uint64
	reg         *obs.Registry // the live server's; guarded by Cluster.mu
}

// Close tears the cluster down in reverse construction order.
func (c *Cluster) Close() {
	for _, m := range c.Mounts {
		_ = m.Close()
	}
	for i := len(c.closers) - 1; i >= 0; i-- {
		c.closers[i]()
	}
}

// Drain flushes pending delayed commits on every Redbud mount.
func (c *Cluster) Drain() {
	for _, r := range c.Redbud {
		_ = r.Drain()
	}
}

// DeviceStats aggregates the data-device counters.
func (c *Cluster) DeviceStats() blockdev.Stats {
	var total blockdev.Stats
	for _, d := range c.Devices {
		s := d.Stats()
		total.Submitted += s.Submitted
		total.Dispatched += s.Dispatched
		total.Merged += s.Merged
		total.Seeks += s.Seeks
		total.SeekBytes += s.SeekBytes
		total.BytesRead += s.BytesRead
		total.BytesWrite += s.BytesWrite
		total.BusyTime += s.BusyTime
	}
	return total
}

// ResetDeviceStats zeroes the data-device counters (after prefill).
func (c *Cluster) ResetDeviceStats() {
	for _, d := range c.Devices {
		d.ResetStats()
	}
}

// RPCs sums client-side RPC counts (network-traffic metric).
func (c *Cluster) RPCs() int64 {
	var total int64
	for _, m := range c.Mounts {
		switch fs := m.(type) {
		case *client.Client:
			total += fs.Stats().RPCs
		case *baseline.NFS3Client:
			total += fs.RPCs()
		case *baseline.PVFS2Client:
			total += fs.RPCs()
		}
	}
	return total
}

// Build assembles a cluster of the given system.
func Build(sys System, opt Options) *Cluster {
	clk := opt.Clock
	if clk == nil {
		clk = clock.Real(opt.Scale)
	}
	switch sys {
	case SysPVFS2:
		return buildPVFS2(opt, clk)
	case SysNFS3:
		return buildNFS3(opt, clk)
	default:
		return buildRedbud(sys, opt, clk)
	}
}

// newDevices builds the shared disk array, optionally traced.
func newDevices(opt Options, clk clock.Clock, rec *iotrace.Recorder, tr *obs.Tracer) []*blockdev.Device {
	devs := make([]*blockdev.Device, 0, opt.DataDevices)
	for i := 0; i < opt.DataDevices; i++ {
		cfg := blockdev.Config{
			ID:           i,
			Size:         opt.DeviceSize,
			Model:        opt.Disk,
			Clock:        clk,
			DisableMerge: opt.DisableMerge,
			Tracer:       tr,
		}
		if rec != nil {
			cfg.Trace = rec.Record
		}
		devs = append(devs, blockdev.New(cfg))
	}
	return devs
}

const (
	metaDevSize = 4 << 30 // each shard's metadata disk
	journalSize = 2 << 30 // journal region at its front
	// agsPerDevice cuts a shard's slice of each data disk in halves.
	agsPerDevice = 2
)

// buildRedbud assembles MDS shards + shared array + Redbud clients in the
// given commit mode. A wiring failure here is a bug in the builder, hence the
// panics; AddClient reports the failures a stopped shard can cause later.
func buildRedbud(sys System, opt Options, clk clock.Clock) *Cluster {
	n := opt.Shards
	if n <= 0 {
		n = 1
	}
	c := &Cluster{System: sys, Clock: clk, opt: opt, Tracer: opt.Tracer}
	if opt.Trace {
		c.Rec = iotrace.NewRecorder()
	}
	if c.Tracer == nil && opt.SpanTrace {
		c.Tracer = obs.NewTracer(opt.SpanTraceCap)
	}
	c.Registry = obs.NewRegistry()
	c.clientsReg = obs.NewRegistry()
	c.Devices = newDevices(opt, clk, c.Rec, c.Tracer)
	c.devMap = make(map[uint32]client.BlockDevice, len(c.Devices))
	for _, d := range c.Devices {
		c.closers = append(c.closers, d.Close)
		c.devMap[uint32(d.ID())] = d
	}
	c.Net = netsim.NewNetwork(clk)
	c.Net.SetTracer(c.Tracer)

	c.MDSs = make([]*mds.Server, n)
	c.Stores = make([]*meta.Store, n)
	c.AGTotals = make([]int64, n)
	sources := make([]agg.Source, 0, n+1)
	for i := 0; i < n; i++ {
		// Metadata device (journal) on its own disk per shard.
		sh := &shard{host: "mds", metaDev: blockdev.New(blockdev.Config{ID: 1000 + i, Size: metaDevSize, Model: opt.Disk, Clock: clk})}
		if n > 1 {
			sh.host = fmt.Sprintf("mds%d", i)
		}
		c.shards = append(c.shards, sh)
		c.closers = append(c.closers, sh.metaDev.Close, func() { c.StopShard(i) })
		c.Net.AddHost(sh.host, opt.Net)
		sources = append(sources, agg.SourceFunc(sh.host, func() obs.Snapshot {
			c.mu.Lock()
			reg := sh.reg
			c.mu.Unlock()
			return reg.Snapshot()
		}))
	}
	for i := range c.shards {
		cfg := c.metaConfig(i)
		c.AGTotals[i] = meta.TotalSpace(cfg.AGs)
		c.setStore(i, meta.NewStore(cfg))
		if err := c.ServeShard(i); err != nil {
			panic(err)
		}
	}
	c.MetaDev = c.shards[0].metaDev
	c.AGTotal = c.AGTotals[0]

	for i := 0; i < opt.Clients; i++ {
		if _, err := c.AddClient(sys); err != nil {
			panic(err)
		}
	}

	// Name every counter in the cluster-wide registry (clients registered
	// themselves as they mounted). Only shard 0's MDS is exported: the
	// server metrics carry fixed names, and a second registration would
	// collide.
	for _, d := range c.Devices {
		d.RegisterMetrics(c.Registry)
	}
	c.MetaDev.RegisterMetrics(c.Registry)
	c.Net.RegisterMetrics(c.Registry)
	c.MDSs[0].RegisterMetrics(c.Registry)

	// The collector reads each shard's live registry, so the fixed server
	// metric names never collide and the aggregation layer tags each source
	// with its shard name. Clients share one source — their metrics are
	// already labeled per client.
	sources = append(sources, agg.RegistrySource("clients", c.clientsReg))
	c.Collector = agg.New(sources...)
	return c
}

// metaConfig is shard i's store configuration over a fresh (fully free) AG
// set: its slice of the shared array, and the journal on its metadata disk.
func (c *Cluster) metaConfig(i int) meta.Config {
	return meta.Config{
		AGs:     alloc.NewShardAGSet(len(c.Devices), c.opt.DeviceSize, i, len(c.shards), agsPerDevice),
		Journal: meta.NewJournal(c.shards[i].metaDev, 0, journalSize),
		Clock:   c.Clock, Tracer: c.Tracer,
		Shard: i, ShardCount: len(c.shards),
	}
}

func (c *Cluster) setStore(i int, st *meta.Store) {
	c.Stores[i] = st
	if i == 0 {
		c.Store = st
	}
}

// ---------------------------------------------------------------------------
// Shard lifecycle. A restart is stop, recover, serve; the disks (data array
// and journal), the network hosts and the clients survive it, everything an
// MDS held in memory does not. The methods are not synchronized with each
// other or with readers of MDSs/Stores: one goroutine drives a shard's
// lifecycle, while clients and the collector keep running.

// StopShard crashes shard i's MDS: the listener closes, operations already on
// a daemon finish (so the journal is quiescent) and queued ones are dropped.
// Established connections die under their clients at the next call.
func (c *Cluster) StopShard(i int) {
	c.shards[i].lis.Close()
	c.MDSs[i].Close()
}

// RecoverShard abandons shard i's in-memory store and rebuilds it from the
// shard's journal over a fresh AG set, reclaiming every delegation and
// uncommitted allocation: after a crash all clients are presumed gone.
func (c *Cluster) RecoverShard(i int) (meta.RecoveryStats, error) {
	st, stats, err := meta.Recover(c.metaConfig(i))
	if err != nil {
		return stats, fmt.Errorf("bench: recovery of shard %d: %w", i, err)
	}
	c.setStore(i, st)
	return stats, nil
}

// ServeShard starts a new MDS incarnation over shard i's current store and
// listens on the shard's host again. The server registers into a fresh
// registry (a registry rejects duplicate names), which the collector's source
// for the shard reads from then on. Clients learn the bumped incarnation from
// their next hello and re-establish their sessions.
func (c *Cluster) ServeShard(i int) error {
	sh := c.shards[i]
	lis, err := c.Net.Listen(sh.host)
	if err != nil {
		return fmt.Errorf("bench: shard %d: %w", i, err)
	}
	sh.incarnation++
	cfg := mds.Config{
		Store:               c.Stores[i],
		Clock:               c.Clock,
		Daemons:             c.opt.MDSDaemons,
		OpCost:              c.opt.MDSOpCost,
		FrameCost:           c.opt.MDSFrameCost,
		ContentionPerDaemon: 0.05,
		LeaseTimeout:        c.opt.LeaseTimeout,
		Incarnation:         sh.incarnation,
		ShardIndex:          uint32(i),
		ShardCount:          uint32(len(c.shards)),
		Tracer:              c.Tracer,
	}
	if c.opt.CommitCheck {
		cfg.CommitCheck = c.checkCommit
	}
	srv := mds.New(cfg)
	go srv.Serve(lis)
	reg := obs.NewRegistry()
	srv.RegisterMetrics(reg)
	c.mu.Lock()
	sh.reg = reg
	c.mu.Unlock()
	sh.lis, c.MDSs[i] = lis, srv
	return nil
}

// RestartShard crash-restarts shard i: StopShard, RecoverShard, ServeShard.
func (c *Cluster) RestartShard(i int) error {
	c.StopShard(i)
	if _, err := c.RecoverShard(i); err != nil {
		return err
	}
	return c.ServeShard(i)
}

// Incarnation reports how many MDS servers have been started on shard i.
func (c *Cluster) Incarnation(i int) uint64 { return c.shards[i].incarnation }

// CrashClient abandons client i without committing or returning anything.
// Its leases stay behind at the MDS until they expire or a recovery reaps
// them.
func (c *Cluster) CrashClient(i int) { c.Redbud[i].Crash() }

// Durable reports whether [off, off+n) of data device dev is durable — the
// oracle behind CommitCheck, and the argument meta.Store.CheckConsistent
// takes.
func (c *Cluster) Durable(dev int, off, n int64) bool {
	return dev >= 0 && dev < len(c.Devices) && c.Devices[dev].IsDurable(off, n)
}

// checkCommit is the Options.CommitCheck oracle.
func (c *Cluster) checkCommit(exts []meta.Extent) error {
	for _, e := range exts {
		if !c.Durable(int(e.Dev), e.VolOff, e.Len) {
			msg := fmt.Sprintf("commit references non-durable extent dev%d [%d,+%d)", e.Dev, e.VolOff, e.Len)
			c.mu.Lock()
			c.violations = append(c.violations, msg)
			c.mu.Unlock()
			return fmt.Errorf("bench: %s", msg)
		}
	}
	return nil
}

// Violations lists every commit CommitCheck refused: ordered-write contract
// breaches. Must stay empty.
func (c *Cluster) Violations() []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]string(nil), c.violations...)
}

// Dial opens an RPC connection from a host of c.Net to shard's current
// listener; it fails while the shard is stopped.
func (c *Cluster) Dial(from string, shard int) (*rpc.Client, error) {
	conn, err := c.Net.Dial(from, c.shards[shard].host)
	if err != nil {
		return nil, fmt.Errorf("bench: dial shard %d from %s: %w", shard, from, err)
	}
	return rpc.NewClient(conn, c.Clock), nil
}

// AddClient mounts one more Redbud client, "client-<i>" for the i-th, in the
// commit mode of sys (which may differ from the cluster's), connected to every
// shard and able to redial each. Build mounts Options.Clients of them.
func (c *Cluster) AddClient(sys System) (*client.Client, error) {
	i := len(c.Redbud)
	host := fmt.Sprintf("client-%d", i)
	c.Net.AddHost(host, c.opt.Net)
	conns := make([]*rpc.Client, len(c.shards))
	for s := range conns {
		conn, err := c.Dial(host, s)
		if err != nil {
			for _, open := range conns[:s] {
				open.Close()
			}
			return nil, err
		}
		conns[s] = conn
	}
	retry := c.opt.Retry
	if retry.Seed == 0 {
		retry.Seed = c.opt.Seed + int64(i)*31 + 1
	}
	net, mdsHost := c.Net, c.shards[0].host
	cfg := client.Config{
		Name:               host,
		Retry:              retry,
		Devices:            c.devMap,
		Clock:              c.Clock,
		Mode:               client.DelayedCommit,
		CompoundDegree:     c.opt.CompoundDegree,
		NetCongestion:      func() time.Duration { return net.CongestionWait(mdsHost) },
		PoolInterval:       2 * time.Millisecond,
		FixedCommitThreads: c.opt.FixedCommitThreads,
		CommitEvenIfClean:  c.opt.CommitEvenIfClean,
		Tracer:             c.Tracer,
	}
	switch sys {
	case SysRedbud:
		cfg.Mode = client.SyncCommit
	case SysRedbudDCSD:
		cfg.DelegationChunk = c.opt.DelegationChunk
	}
	cfg.Shards = conns
	cfg.Redial = func(s int) (*rpc.Client, error) { return c.Dial(host, s) }
	cl := client.New(cfg)
	cl.RegisterMetrics(c.Registry)
	cl.RegisterMetrics(c.clientsReg)
	c.Redbud = append(c.Redbud, cl)
	c.Mounts = append(c.Mounts, cl)
	return cl, nil
}

// buildNFS3 assembles the single-server baseline.
func buildNFS3(opt Options, clk clock.Clock) *Cluster {
	c := &Cluster{System: SysNFS3, Clock: clk}
	if opt.Trace {
		c.Rec = iotrace.NewRecorder()
	}
	// One server disk: NFS owns its storage.
	cfg := blockdev.Config{ID: 0, Size: opt.DeviceSize, Model: opt.Disk, Clock: clk, DisableMerge: opt.DisableMerge}
	if c.Rec != nil {
		cfg.Trace = c.Rec.Record
	}
	disk := blockdev.New(cfg)
	c.Devices = []*blockdev.Device{disk}
	c.closers = append(c.closers, disk.Close)

	srv := baseline.NewNFS3Server(baseline.NFS3Config{Disk: disk, Clock: clk, Daemons: opt.MDSDaemons, OpCost: opt.MDSOpCost})
	c.closers = append(c.closers, srv.Close)

	n := netsim.NewNetwork(clk)
	n.AddHost("nfs", opt.Net)
	lis, err := n.Listen("nfs")
	if err != nil {
		panic(err)
	}
	go srv.Serve(lis)
	c.closers = append(c.closers, func() { lis.Close() })

	for i := 0; i < opt.Clients; i++ {
		host := fmt.Sprintf("client-%d", i)
		n.AddHost(host, opt.Net)
		conn, err := n.Dial(host, "nfs")
		if err != nil {
			panic(err)
		}
		c.Mounts = append(c.Mounts, baseline.NewNFS3Client(conn, clk))
	}
	return c
}

// buildPVFS2 assembles the striped user-level baseline.
func buildPVFS2(opt Options, clk clock.Clock) *Cluster {
	c := &Cluster{System: SysPVFS2, Clock: clk}
	if opt.Trace {
		c.Rec = iotrace.NewRecorder()
	}
	n := netsim.NewNetwork(clk)

	n.AddHost("meta", opt.Net)
	ml, err := n.Listen("meta")
	if err != nil {
		panic(err)
	}
	ms := baseline.NewPVFS2MetaServer(clk, opt.MDSDaemons, opt.MDSOpCost)
	go ms.Serve(ml)
	c.closers = append(c.closers, func() { ml.Close() }, ms.Close)

	for i := 0; i < opt.DataDevices; i++ {
		host := fmt.Sprintf("data-%d", i)
		n.AddHost(host, opt.Net)
		cfg := blockdev.Config{ID: i, Size: opt.DeviceSize, Model: opt.Disk, Clock: clk, DisableMerge: opt.DisableMerge}
		if c.Rec != nil {
			cfg.Trace = c.Rec.Record
		}
		disk := blockdev.New(cfg)
		c.Devices = append(c.Devices, disk)
		c.closers = append(c.closers, disk.Close)
		ds := baseline.NewPVFS2DataServer(disk, clk, opt.MDSDaemons)
		dl, err := n.Listen(host)
		if err != nil {
			panic(err)
		}
		go ds.Serve(dl)
		c.closers = append(c.closers, func() { dl.Close() }, ds.Close)
	}

	for i := 0; i < opt.Clients; i++ {
		host := fmt.Sprintf("client-%d", i)
		n.AddHost(host, opt.Net)
		mconn, err := n.Dial(host, "meta")
		if err != nil {
			panic(err)
		}
		var dconns []netsim.Conn
		for d := 0; d < opt.DataDevices; d++ {
			dc, err := n.Dial(host, fmt.Sprintf("data-%d", d))
			if err != nil {
				panic(err)
			}
			dconns = append(dconns, dc)
		}
		c.Mounts = append(c.Mounts, baseline.NewPVFS2Client(mconn, dconns, clk))
	}
	return c
}

// RunDistributed runs the spec on every mount concurrently (each client gets
// a private namespace and seed) and aggregates: ops and bytes summed, the
// duration that of the measured window. It owns the window's edges: every
// mount prefills, the cluster drains, and the data devices' counters and the
// blktrace recorder restart before the window opens, so they count only the
// measured phase. The final drain is inside the window: delayed commit must
// not get credit for work it simply deferred past the finish line.
func RunDistributed(c *Cluster, spec workload.Spec) (workload.Result, error) {
	specs := make([]workload.Spec, len(c.Mounts))
	for i := range specs {
		specs[i] = spec
		specs[i].Name = fmt.Sprintf("%s-c%d", spec.Name, i)
		specs[i].Seed = spec.Seed + int64(i)*1000003
	}
	onEveryMount := func(f func(i int) error) error {
		errs := make([]error, len(c.Mounts))
		var wg sync.WaitGroup
		for i := range c.Mounts {
			wg.Add(1)
			go func() {
				defer wg.Done()
				errs[i] = f(i)
			}()
		}
		wg.Wait()
		return errors.Join(errs...)
	}
	if err := onEveryMount(func(i int) error { return workload.Prefill(c.Mounts[i], specs[i]) }); err != nil {
		return workload.Result{}, fmt.Errorf("prefill: %w", err)
	}
	c.Drain()
	c.ResetDeviceStats()
	if c.Rec != nil {
		c.Rec.Reset()
	}

	results := make([]workload.Result, len(c.Mounts))
	start := c.Clock.Now()
	err := onEveryMount(func(i int) (err error) {
		results[i], err = workload.Measure(c.Mounts[i], c.Clock, specs[i])
		return err
	})
	if err != nil {
		return workload.Result{}, err
	}
	c.Drain()
	agg := workload.Result{Name: spec.Name, Duration: c.Clock.Since(start)}
	for _, r := range results {
		agg.Ops += r.Ops
		agg.Errors += r.Errors
		agg.BytesWritten += r.BytesWritten
		agg.BytesRead += r.BytesRead
		for k := range agg.Latency {
			agg.Latency[k].Count += r.Latency[k].Count
			agg.Latency[k].Total += r.Latency[k].Total
		}
	}
	return agg, nil
}

// RunBTDistributed runs NPB BT-IO across the cluster's mounts.
func RunBTDistributed(c *Cluster, spec workload.BTSpec) (workload.Result, error) {
	return workload.RunBT(c.Mounts, c.Clock, spec)
}
