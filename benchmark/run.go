package main

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"redbud/internal/bench"
	"redbud/internal/blockdev"
	"redbud/internal/client"
	"redbud/internal/clock"
	"redbud/internal/fsapi"
	"redbud/internal/obs"
)

// runOpts selects one measured run of one workload.
type runOpts struct {
	w     *workload
	seed  int64
	ops   int  // total measured ops across all threads
	trace bool // switch on Options.SpanTrace and the fsapi timing decorator
	// gateFiles bounds how many survivors the gate reads back byte for byte.
	gateFiles int
	// corrupt overwrites eight bytes of one surviving file after the drain,
	// so tests can watch the read-back gate fail.
	corrupt bool
}

// runStats is everything one run observed, before it is turned into metrics.
type runStats struct {
	Ops       int
	Virtual   time.Duration // first issue → last return + Drain, cluster clock
	Wall      time.Duration // host wall time of the same window
	SetupWall time.Duration // build + mkdir + prefill + drain, host wall
	GateWall  time.Duration // correctness gate, host wall
	Lat       [numOpKinds][]time.Duration

	UserBytesWritten int64
	Client           client.Stats   // summed over clients, measured window only
	Reg              obs.Snapshot   // registry counters, measured window only
	Dev              blockdev.Stats // summed over the data devices
	DataDevices      int
	MetaDevBusy      time.Duration
	QueueLenMean     float64
	QueueLenMax      float64
	ThreadsMean      float64
	Host             hostUsage

	// Traced runs only.
	Calls        *callRecorder
	Spans        []obs.Span
	SpansTotal   int64
	SpansDropped int64
}

// spansPerOp bounds how many spans one op leaves in the ring; the ring is
// sized from it so it never wraps. Measured: 125 on xcdn32k-sync (13.8 RPCs
// per op, each two frames of net and rpc spans, plus device and commit
// spans), 77 on xcdn32k-dc, under 30 on the other two.
const spansPerOp = 300

func buildCluster(o runOpts) *bench.Cluster {
	opt := bench.DefaultOptions()
	opt.Clients = numClients
	opt.Scale = 1
	opt.Seed = o.seed
	if o.trace {
		opt.SpanTrace = true
		opt.SpanTraceCap = (o.ops + numClients*o.w.Threads*o.w.Prefill) * spansPerOp
	}
	return bench.Build(o.w.System, opt)
}

// setUp builds the cluster, makes the directories and runs every thread's
// prefill, and reports how long that took on the host.
func setUp(o runOpts, plans []threadPlan) (*bench.Cluster, time.Duration, error) {
	start := time.Now()
	c := buildCluster(o)
	fs := c.Mounts[0]
	err := fs.Mkdir(benchRoot)
	for d := 0; d < o.w.Dirs && err == nil; d++ {
		err = fs.Mkdir(dirPath(d))
	}
	if err != nil {
		c.Close()
		return nil, 0, fmt.Errorf("set-up mkdir: %w", err)
	}
	errs := make([]error, len(plans))
	var wg sync.WaitGroup
	for i := range plans {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			k := newWorker(o, c.Mounts[plans[i].Client], &plans[i])
			// Between them a client's threads resolve every directory once,
			// so no measured op pays a first-touch lookup: in a short
			// window those sat right at read_p95.
			for d := plans[i].Thread; d < o.w.Dirs; d += o.w.Threads {
				if _, errs[i] = k.fs.Stat(dirPath(d)); errs[i] != nil {
					return
				}
			}
			for _, op := range plans[i].Prefill {
				if errs[i] = k.do(op); errs[i] != nil {
					return
				}
			}
		}(i)
	}
	wg.Wait()
	if err := errors.Join(append(errs, drain(c))...); err != nil {
		c.Close()
		return nil, 0, fmt.Errorf("set-up prefill: %w", err)
	}
	return c, time.Since(start), nil
}

func drain(c *bench.Cluster) error {
	var errs []error
	for _, r := range c.Redbud {
		errs = append(errs, r.Drain())
	}
	return errors.Join(errs...)
}

// worker is one simulated application thread.
type worker struct {
	w    *workload
	seed int64
	fs   fsapi.FileSystem
	plan *threadPlan
	buf  []byte
}

func newWorker(o runOpts, fs fsapi.FileSystem, p *threadPlan) *worker {
	return &worker{w: o.w, seed: o.seed, fs: fs, plan: p}
}

func (k *worker) buffer(n uint32) []byte {
	if int(n) > len(k.buf) {
		k.buf = make([]byte, n)
	}
	return k.buf[:n]
}

// do executes one op through the mount and checks everything it returns.
func (k *worker) do(o op) error {
	path := k.w.filePath(k.plan.Client, k.plan.Thread, o.File)
	key := fileKey(k.seed, k.plan.Client, k.plan.Thread, o.File)
	switch o.Kind {
	case opCreate, opAppend:
		var f fsapi.File
		var err error
		if o.Kind == opCreate {
			f, err = k.fs.Create(path)
		} else {
			f, err = k.fs.Open(path)
		}
		if err != nil {
			return err
		}
		p := k.buffer(o.Size)
		fillData(p, key, int64(o.Off))
		if o.Kind == opCreate {
			// Page-sized writes, as an application's write(2) loop issues
			// them: whether they merge is the elevator's and the client's
			// business, which is what the workloads compare.
			for off := 0; off < len(p) && err == nil; off += writeChunk {
				_, err = f.WriteAt(p[off:min(off+writeChunk, len(p))], int64(off))
			}
		} else {
			var off int64
			off, err = f.Append(p)
			if err == nil && off != int64(o.Off) {
				err = fmt.Errorf("%s: append landed at %d, want %d", path, off, o.Off)
			}
		}
		if err == nil && k.w.Fsync {
			err = f.Sync()
		}
		return errors.Join(err, f.Close())
	case opRead:
		return readBack(k.fs, path, key, o.Size, k.buffer(o.Size))
	case opDelete:
		return k.fs.Remove(path)
	}
	return fmt.Errorf("unknown op kind %d", o.Kind)
}

// readBack reads a whole file through fs and compares it with the
// generator's fill.
func readBack(fs fsapi.FileSystem, path string, key uint64, size uint32, p []byte) error {
	f, err := fs.Open(path)
	if err != nil {
		return err
	}
	if f.Size() != int64(size) {
		err = fmt.Errorf("%s: size %d, want %d", path, f.Size(), size)
	} else if n, rerr := f.ReadAt(p, 0); rerr != nil {
		err = rerr
	} else if n != int(size) {
		err = fmt.Errorf("%s: short read %d of %d", path, n, size)
	} else if !checkData(p, key, 0) {
		err = fmt.Errorf("%s: content mismatch", path)
	}
	return errors.Join(err, f.Close())
}

// run sets the cluster up, drives the measured op stream, drains, collects
// every counter, and passes the cluster through the correctness gate. Any
// failed op or gate finding is an error: the run then has no metrics.
func run(o runOpts) (*runStats, error) {
	plans := plan(o.w, o.seed, o.ops)
	c, setupWall, err := setUp(o, plans)
	if err != nil {
		return nil, err
	}
	defer c.Close()

	st := &runStats{SetupWall: setupWall}
	mounts := c.Mounts
	if o.trace {
		st.Calls = &callRecorder{clk: c.Clock}
		mounts = make([]fsapi.FileSystem, len(c.Mounts))
		for i, m := range c.Mounts {
			mounts[i] = timedFS{m, st.Calls}
		}
		c.Tracer.Reset() // drop the set-up's spans
	}
	c.ResetDeviceStats()
	metaBusy0 := c.MetaDev.Stats().BusyTime
	reg0 := c.Registry.Snapshot()
	client0 := sumClientStats(c.Redbud)

	stopSampler := make(chan struct{})
	samplerDone := make(chan struct{})
	go func() {
		defer close(samplerDone)
		st.sampleQueues(c, stopSampler)
	}()

	lat := make([][numOpKinds][]time.Duration, len(plans))
	errs := make([]error, len(plans))
	var failed atomic.Int64
	var wg sync.WaitGroup
	host0 := readHost()
	wall0 := time.Now()
	start := c.Clock.Now()
	for i := range plans {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			k := newWorker(o, mounts[plans[i].Client], &plans[i])
			for _, op := range plans[i].Ops {
				t0 := c.Clock.Now()
				err := k.do(op)
				lat[i][op.Kind] = append(lat[i][op.Kind], c.Clock.Since(t0))
				if err != nil {
					failed.Add(1)
					if errs[i] == nil {
						errs[i] = fmt.Errorf("%s op on client %d thread %d: %w",
							opNames[op.Kind], plans[i].Client, plans[i].Thread, err)
					}
				}
				c.Clock.Sleep(o.w.Think)
			}
		}(i)
	}
	wg.Wait()
	drainErr := drain(c)
	st.Virtual = c.Clock.Since(start)
	st.Wall = time.Since(wall0)
	st.Host = readHost().since(host0)
	close(stopSampler)
	<-samplerDone

	for i := range plans {
		st.Ops += len(plans[i].Ops)
		for k := range lat[i] {
			st.Lat[k] = append(st.Lat[k], lat[i][k]...)
		}
		for _, op := range plans[i].Ops {
			if op.Kind == opCreate || op.Kind == opAppend {
				st.UserBytesWritten += int64(op.Size)
			}
		}
	}
	st.Client = subClientStats(sumClientStats(c.Redbud), client0)
	st.Reg = obs.Diff(reg0, c.Registry.Snapshot())
	st.Dev, st.DataDevices = c.DeviceStats(), len(c.Devices)
	st.MetaDevBusy = c.MetaDev.Stats().BusyTime - metaBusy0
	if o.trace {
		st.Spans = c.Tracer.Spans()
		st.SpansTotal = c.Tracer.Total()
		st.SpansDropped = c.Tracer.Dropped()
	}
	if err := errors.Join(append(errs, drainErr)...); err != nil {
		return nil, fmt.Errorf("%d of %d ops failed: %w", failed.Load(), st.Ops, err)
	}

	if o.corrupt {
		if err := corruptOne(o, c, plans); err != nil {
			return nil, err
		}
	}
	gate0 := time.Now()
	if err := gate(o, c, plans); err != nil {
		return nil, fmt.Errorf("correctness gate: %w", err)
	}
	st.GateWall = time.Since(gate0)
	return st, nil
}

// sampleQueues reads every client's commit-queue length and commit-thread
// count every 10 ms of cluster time until stop closes.
func (st *runStats) sampleQueues(c *bench.Cluster, stop <-chan struct{}) {
	var n, qsum, tsum float64
	for {
		select {
		case <-stop:
			if n > 0 {
				st.QueueLenMean, st.ThreadsMean = qsum/n, tsum/n
			}
			return
		case <-c.Clock.After(10 * time.Millisecond):
		}
		for _, r := range c.Redbud {
			q := float64(r.QueueLen())
			qsum += q
			tsum += float64(r.CommitThreads())
			st.QueueLenMax = max(st.QueueLenMax, q)
		}
		n += float64(len(c.Redbud))
	}
}

func sumClientStats(cs []*client.Client) client.Stats {
	var t client.Stats
	for _, c := range cs {
		s := c.Stats()
		t.RPCs += s.RPCs
		t.CommitsSent += s.CommitsSent
		t.CommitRPCs += s.CommitRPCs
		t.QueueEnqueued += s.QueueEnqueued
		t.QueueDedup += s.QueueDedup
		t.LocalAllocs += s.LocalAllocs
		t.WastedDelegationBytes += s.WastedDelegationBytes
	}
	return t
}

func subClientStats(a, b client.Stats) client.Stats {
	a.RPCs -= b.RPCs
	a.CommitsSent -= b.CommitsSent
	a.CommitRPCs -= b.CommitRPCs
	a.QueueEnqueued -= b.QueueEnqueued
	a.QueueDedup -= b.QueueDedup
	a.LocalAllocs -= b.LocalAllocs
	a.WastedDelegationBytes -= b.WastedDelegationBytes
	return a
}

// corruptOne overwrites the first eight bytes of the first sampled survivor
// with zeros and makes the change durable and committed.
func corruptOne(o runOpts, c *bench.Cluster, plans []threadPlan) error {
	sample := gateSample(plans, o.gateFiles)
	if len(sample) == 0 {
		return errors.New("no surviving file to corrupt")
	}
	p := sample[0].p
	f, err := c.Mounts[p.Client].Open(o.w.filePath(p.Client, p.Thread, sample[0].f.No))
	if err != nil {
		return err
	}
	_, err = f.WriteAt(make([]byte, 8), 0)
	return errors.Join(err, f.Sync(), f.Close())
}

const (
	// defaultGateFiles bounds the content read-back. Reading every survivor
	// back from the modeled HDDs costs 30 s (xcdn32k-dc: 2 700 files of
	// eight scattered extents) to over 5 min (xcdn32k-dcsd: 14 400 files on
	// one or two disks) per run, far beyond the contract's per-run cap, so
	// the bytes of an evenly spaced sample are compared and the name and
	// size of every survivor.
	defaultGateFiles = 128
	// gateReaders is the number of concurrent read-back threads; enough for
	// the disk elevators to sort and merge the reads.
	gateReaders = 32
)

type gateJob struct {
	p *threadPlan
	f liveFile
}

// gateSample picks the survivors whose content is read back: every n-th of
// all threads' survivors in plan order, so the choice depends on the seed only.
func gateSample(plans []threadPlan, n int) []gateJob {
	var all []gateJob
	for i := range plans {
		for _, f := range plans[i].Survivors {
			all = append(all, gateJob{&plans[i], f})
		}
	}
	if len(all) <= n {
		return all
	}
	sample := make([]gateJob, n)
	for i := range sample {
		sample[i] = all[i*len(all)/n]
	}
	return sample
}

// gate is the correctness check every run must pass. Through the other
// client's mount, the namespace holds exactly the planned survivors at
// exactly their planned sizes, and a sample of them reads back as the
// generator's fill; fsck is clean; and the MDS references no extent whose
// data is not durable (the paper's invariant).
func gate(o runOpts, c *bench.Cluster, plans []threadPlan) error {
	want := make(map[string]int64)
	for i := range plans {
		p := &plans[i]
		for _, f := range p.Survivors {
			want[o.w.filePath(p.Client, p.Thread, f.No)] = int64(f.Size)
		}
	}
	for d := 0; d < o.w.Dirs; d++ {
		ents, err := c.Mounts[1].ReadDir(dirPath(d))
		if err != nil {
			return fmt.Errorf("readdir: %w", err)
		}
		for _, e := range ents {
			path := dirPath(d) + "/" + e.Name
			size, ok := want[path]
			if !ok {
				return fmt.Errorf("%s: in the namespace but not a planned survivor", path)
			}
			if e.Size != size {
				return fmt.Errorf("%s: size %d, want %d", path, e.Size, size)
			}
			delete(want, path)
		}
	}
	if len(want) != 0 {
		return fmt.Errorf("%d surviving files are missing from the namespace", len(want))
	}

	jobs := make(chan gateJob)
	errs := make([]error, gateReaders)
	var wg sync.WaitGroup
	for r := 0; r < gateReaders; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			var buf []byte
			for j := range jobs {
				if errs[r] != nil {
					continue
				}
				if int(j.f.Size) > len(buf) {
					buf = make([]byte, j.f.Size)
				}
				other := c.Mounts[(j.p.Client+1)%numClients]
				errs[r] = readBack(other, o.w.filePath(j.p.Client, j.p.Thread, j.f.No),
					fileKey(o.seed, j.p.Client, j.p.Thread, j.f.No), j.f.Size, buf[:j.f.Size])
			}
		}(r)
	}
	for _, j := range gateSample(plans, o.gateFiles) {
		jobs <- j
	}
	close(jobs)
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		return fmt.Errorf("read-back: %w", err)
	}

	if r := c.Store.Fsck(c.AGTotal); !r.OK() {
		return fmt.Errorf("fsck: %v", r.Problems)
	}
	bad := c.Store.CheckConsistent(func(dev int, off, n int64) bool {
		return c.Devices[dev].IsDurable(off, n)
	})
	if len(bad) != 0 {
		return fmt.Errorf("%d committed extents reference non-durable data", len(bad))
	}
	return nil
}

// Timing decorator: the traced run's span at the fsapi boundary.

type callKind int

const (
	callCreate callKind = iota
	callOpen
	callWrite
	callRead
	callAppend
	callSync
	callClose
	callRemove
	numCallKinds
)

var callNames = [numCallKinds]string{"create", "open", "write", "read", "append", "sync", "close", "remove"}

// callRecorder collects the duration of every fsapi call on the cluster clock.
type callRecorder struct {
	clk     clock.Clock
	mu      sync.Mutex
	samples [numCallKinds][]time.Duration
}

func (r *callRecorder) done(k callKind, start time.Time) {
	d := r.clk.Since(start)
	r.mu.Lock()
	r.samples[k] = append(r.samples[k], d)
	r.mu.Unlock()
}

type timedFS struct {
	fsapi.FileSystem
	rec *callRecorder
}

func (t timedFS) Create(path string) (fsapi.File, error) {
	defer t.rec.done(callCreate, t.rec.clk.Now())
	f, err := t.FileSystem.Create(path)
	if err != nil {
		return nil, err
	}
	return timedFile{f, t.rec}, nil
}

func (t timedFS) Open(path string) (fsapi.File, error) {
	defer t.rec.done(callOpen, t.rec.clk.Now())
	f, err := t.FileSystem.Open(path)
	if err != nil {
		return nil, err
	}
	return timedFile{f, t.rec}, nil
}

func (t timedFS) Remove(path string) error {
	defer t.rec.done(callRemove, t.rec.clk.Now())
	return t.FileSystem.Remove(path)
}

type timedFile struct {
	fsapi.File
	rec *callRecorder
}

func (t timedFile) WriteAt(p []byte, off int64) (int, error) {
	defer t.rec.done(callWrite, t.rec.clk.Now())
	return t.File.WriteAt(p, off)
}

func (t timedFile) ReadAt(p []byte, off int64) (int, error) {
	defer t.rec.done(callRead, t.rec.clk.Now())
	return t.File.ReadAt(p, off)
}

func (t timedFile) Append(p []byte) (int64, error) {
	defer t.rec.done(callAppend, t.rec.clk.Now())
	return t.File.Append(p)
}

func (t timedFile) Sync() error {
	defer t.rec.done(callSync, t.rec.clk.Now())
	return t.File.Sync()
}

func (t timedFile) Close() error {
	defer t.rec.done(callClose, t.rec.clk.Now())
	return t.File.Close()
}
