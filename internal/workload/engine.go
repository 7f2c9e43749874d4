// Package workload re-implements the paper's five benchmarks against the
// fsapi.FileSystem interface: the three Filebench personalities
// (fileserver, varmail, webproxy), the xcdn CDN-server benchmark with its
// 32 KB / 64 KB / 1 MB file-size sweep, and an NPB BT-IO-style collective
// writer with read-back verification (the "conflict reads" of §V-C).
//
// Each generator partitions the namespace per thread, so measured
// differences come from the file system under test, not from accidental
// application-level contention.
package workload

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"redbud/internal/clock"
	"redbud/internal/fsapi"
	"redbud/internal/stats"
)

// OpKind enumerates generator operations.
type OpKind int

// Operation kinds.
const (
	OpCreateWrite OpKind = iota // create a new file and write it whole
	OpRead                      // open an existing file, read it whole, close
	OpAppend                    // open an existing file, append, close
	OpDelete                    // remove an existing file
	OpStat                      // stat an existing file
	nOpKinds
)

func (k OpKind) String() string {
	switch k {
	case OpCreateWrite:
		return "create"
	case OpRead:
		return "read"
	case OpAppend:
		return "append"
	case OpDelete:
		return "delete"
	case OpStat:
		return "stat"
	}
	return "?"
}

// OpWeight is one entry of an operation mix.
type OpWeight struct {
	Kind   OpKind
	Weight int
}

// SizeDist describes file sizes.
type SizeDist struct {
	Mean  int64
	Fixed bool // all files exactly Mean bytes
}

// sample draws a size: fixed, or a clamped exponential around the mean
// (approximating Filebench's gamma-distributed sizes).
func (d SizeDist) sample(rng *rand.Rand) int64 {
	if d.Fixed || d.Mean <= 4096 {
		return d.Mean
	}
	v := int64(rng.ExpFloat64() * float64(d.Mean))
	if v < 4096 {
		v = 4096
	}
	if v > 4*d.Mean {
		v = 4 * d.Mean
	}
	return v
}

// Spec parameterizes the generic op-mix engine.
type Spec struct {
	Name string
	// Threads is the number of application threads.
	Threads int
	// OpsPerThread is the measured operation count per thread.
	OpsPerThread int
	// PrefillPerThread files are created per thread before measuring.
	PrefillPerThread int
	// FileSize distributes sizes of created/appended files.
	FileSize SizeDist
	// AppendSize is the size of one append (defaults to 16 KiB).
	AppendSize int64
	// Mix weights the operations.
	Mix []OpWeight
	// FsyncWrites forces fsync after every create/append (varmail).
	FsyncWrites bool
	// Think is per-op application compute time, simulated on the clock.
	Think time.Duration
	// Dirs spreads each thread's files over this many directories
	// (xcdn's "scattered over the whole namespace").
	Dirs int
	// Seed makes runs reproducible.
	Seed int64
	// OnOp, when non-nil, observes every measured operation in issue order
	// (per thread). The determinism regression test diffs two runs' op
	// streams through this hook.
	OnOp func(tid int, kind OpKind, path string, n int64)
}

// Result summarizes one run.
type Result struct {
	Name                    string
	Duration                time.Duration // virtual time of the measured phase
	Ops                     int64
	Errors                  int64
	BytesWritten, BytesRead int64
	// Latency aggregates per op kind.
	Latency [nOpKinds]struct {
		Count int64
		Total time.Duration
	}
}

// Throughput returns operations per virtual second.
func (r Result) Throughput() float64 {
	if r.Duration <= 0 {
		return 0
	}
	return float64(r.Ops) / r.Duration.Seconds()
}

// MBps returns total data rate in MB/s (1 MB = 1e6 bytes) of virtual time.
func (r Result) MBps() float64 {
	if r.Duration <= 0 {
		return 0
	}
	return float64(r.BytesWritten+r.BytesRead) / 1e6 / r.Duration.Seconds()
}

// MeanLatency returns the average latency of one op kind.
func (r Result) MeanLatency(k OpKind) time.Duration {
	l := r.Latency[k]
	if l.Count == 0 {
		return 0
	}
	return l.Total / time.Duration(l.Count)
}

// threadState tracks one thread's private file population.
type threadState struct {
	rng   *rand.Rand
	files []string // live files
	next  int      // name counter
}

// Run executes the op-mix engine against fs: Prefill, then Measure.
func Run(fs fsapi.FileSystem, clk clock.Clock, spec Spec) (Result, error) {
	if err := Prefill(fs, spec); err != nil {
		return Result{}, err
	}
	return Measure(fs, clk, spec)
}

// withDefaults fills spec's zero fields and returns its mix's total weight,
// refusing an empty mix.
func (spec Spec) withDefaults() (Spec, int, error) {
	if spec.Threads <= 0 {
		spec.Threads = 1
	}
	if spec.Dirs <= 0 {
		spec.Dirs = 1
	}
	if spec.AppendSize <= 0 {
		spec.AppendSize = 16 << 10
	}
	total := 0
	for _, w := range spec.Mix {
		total += w.Weight
	}
	if total == 0 {
		return spec, 0, fmt.Errorf("workload %s: empty op mix", spec.Name)
	}
	return spec, total, nil
}

// Prefill is the unmeasured phase: it makes spec's namespace and writes each
// thread's PrefillPerThread files. A thread writes every file even past a
// failed one, so the population is as complete as fs allows, and Prefill
// returns each thread's first error.
func Prefill(fs fsapi.FileSystem, spec Spec) error {
	spec, _, err := spec.withDefaults()
	if err != nil {
		return err
	}
	root := "/" + spec.Name
	if err := fs.Mkdir(root); err != nil {
		return err
	}
	for d := 0; d < spec.Dirs; d++ {
		if err := fs.Mkdir(fmt.Sprintf("%s/d%d", root, d)); err != nil {
			return err
		}
	}
	errs := make([]error, spec.Threads)
	var wg sync.WaitGroup
	for t := range errs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := threadRNG(spec.Seed, t, false)
			for i := 0; i < spec.PrefillPerThread; i++ {
				if err := writeWholeFile(fs, pathFor(root, spec, t, i), spec.FileSize.sample(rng), false); errs[t] == nil {
					errs[t] = err
				}
			}
		}()
	}
	wg.Wait()
	return errors.Join(errs...)
}

// Measure runs spec's measured phase against fs, which Prefill has
// populated, and reports it.
func Measure(fs fsapi.FileSystem, clk clock.Clock, spec Spec) (Result, error) {
	if clk == nil {
		clk = clock.Real(1)
	}
	spec, totalWeight, err := spec.withDefaults()
	if err != nil {
		return Result{}, err
	}
	root := "/" + spec.Name

	var (
		ops, errs      stats.Counter
		bytesW, bytesR stats.Counter
		latCount       [nOpKinds]stats.Counter
		latTotal       [nOpKinds]stats.Counter
	)

	worker := func(tid int) {
		ts := &threadState{rng: threadRNG(spec.Seed, tid, true)}
		// Rebuild the thread's view of its prefilled files.
		for i := 0; i < spec.PrefillPerThread; i++ {
			ts.files = append(ts.files, pathFor(root, spec, tid, i))
		}
		ts.next = spec.PrefillPerThread
		buf := make([]byte, 0)
		for i := 0; i < spec.OpsPerThread; i++ {
			kind := pickOp(ts.rng, spec.Mix, totalWeight, ts)
			start := clk.Now()
			path, n, err := execOp(fs, clk, spec, root, tid, ts, kind, &buf)
			el := clk.Since(start)
			if spec.OnOp != nil {
				spec.OnOp(tid, kind, path, n)
			}
			ops.Inc()
			if err != nil {
				errs.Inc()
			}
			latCount[kind].Inc()
			latTotal[kind].Add(int64(el))
			if kind == OpRead {
				bytesR.Add(n)
			} else {
				bytesW.Add(n)
			}
			if spec.Think > 0 {
				clk.Sleep(spec.Think)
			}
		}
	}

	start := clk.Now()
	var wg sync.WaitGroup
	for t := 0; t < spec.Threads; t++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			worker(t)
		}()
	}
	wg.Wait()
	dur := clk.Since(start)

	res := Result{
		Name:         spec.Name,
		Duration:     dur,
		Ops:          ops.Load(),
		Errors:       errs.Load(),
		BytesWritten: bytesW.Load(),
		BytesRead:    bytesR.Load(),
	}
	for k := 0; k < int(nOpKinds); k++ {
		res.Latency[k].Count = latCount[k].Load()
		res.Latency[k].Total = time.Duration(latTotal[k].Load())
	}
	return res, nil
}

// threadRNG derives a thread's deterministic generator from the spec seed.
// The prefill and measured phases get distinct streams (offset by a prime)
// so the measured-phase draws do not depend on how prefill consumed the
// sequence; two runs with the same seed therefore produce identical op
// streams regardless of goroutine scheduling.
func threadRNG(seed int64, tid int, measured bool) *rand.Rand {
	s := seed + int64(tid)*7919
	if measured {
		s += 104729
	}
	return rand.New(rand.NewSource(s))
}

func pathFor(root string, spec Spec, tid, i int) string {
	return fmt.Sprintf("%s/d%d/t%d-f%d", root, i%spec.Dirs, tid, i)
}

// pickOp draws an op kind, falling back to create when the thread has no
// files for file-consuming ops.
func pickOp(rng *rand.Rand, mix []OpWeight, total int, ts *threadState) OpKind {
	x := rng.Intn(total)
	for _, w := range mix {
		if x < w.Weight {
			if w.Kind != OpCreateWrite && len(ts.files) == 0 {
				return OpCreateWrite
			}
			return w.Kind
		}
		x -= w.Weight
	}
	return OpCreateWrite
}

// execOp performs one operation, returning the path it touched and the
// bytes moved.
func execOp(fs fsapi.FileSystem, clk clock.Clock, spec Spec, root string, tid int, ts *threadState, kind OpKind, buf *[]byte) (string, int64, error) {
	switch kind {
	case OpCreateWrite:
		path := pathFor(root, spec, tid, ts.next)
		ts.next++
		size := spec.FileSize.sample(ts.rng)
		if err := writeWholeFile(fs, path, size, spec.FsyncWrites); err != nil {
			return path, 0, err
		}
		ts.files = append(ts.files, path)
		return path, size, nil

	case OpRead:
		path := ts.files[ts.rng.Intn(len(ts.files))]
		f, err := fs.Open(path)
		if err != nil {
			return path, 0, err
		}
		defer f.Close()
		size := f.Size()
		if int64(cap(*buf)) < size {
			*buf = make([]byte, size)
		}
		n, err := f.ReadAt((*buf)[:size], 0)
		return path, int64(n), err

	case OpAppend:
		path := ts.files[ts.rng.Intn(len(ts.files))]
		f, err := fs.Open(path)
		if err != nil {
			return path, 0, err
		}
		defer f.Close()
		data := fill(spec.AppendSize, byte(tid))
		if _, err := f.Append(data); err != nil {
			return path, 0, err
		}
		if spec.FsyncWrites {
			if err := f.Sync(); err != nil {
				return path, 0, err
			}
		}
		return path, spec.AppendSize, nil

	case OpDelete:
		i := ts.rng.Intn(len(ts.files))
		path := ts.files[i]
		ts.files = append(ts.files[:i], ts.files[i+1:]...)
		return path, 0, fs.Remove(path)

	case OpStat:
		path := ts.files[ts.rng.Intn(len(ts.files))]
		_, err := fs.Stat(path)
		return path, 0, err
	}
	return "", 0, fmt.Errorf("workload: bad op %d", kind)
}

// writeWholeFile creates a file and writes size bytes the way applications
// emit data: page-sized updates for small files, 64 KiB buffers for large
// ones. Optionally fsyncs before close.
func writeWholeFile(fs fsapi.FileSystem, path string, size int64, fsync bool) error {
	f, err := fs.Create(path)
	if err != nil {
		return err
	}
	chunk := int64(4096)
	if size > 64<<10 {
		chunk = 64 << 10
	}
	data := fill(chunk, byte(size))
	var off int64
	for off < size {
		n := chunk
		if off+n > size {
			n = size - off
		}
		if _, err := f.WriteAt(data[:n], off); err != nil {
			f.Close()
			return err
		}
		off += n
	}
	if fsync {
		if err := f.Sync(); err != nil {
			f.Close()
			return err
		}
	}
	return f.Close()
}

func fill(n int64, seed byte) []byte {
	p := make([]byte, n)
	for i := range p {
		p[i] = byte(i)*13 + seed
	}
	return p
}
