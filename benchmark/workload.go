package main

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"time"

	"redbud/internal/bench"
)

// Every workload runs on the same cluster shape: 2 clients, 4 DefaultHDD
// data disks, GigabitEthernet, 8 MDS daemons, 1 shard, Scale 1.
const numClients = 2

type opKind uint8

const (
	opCreate opKind = iota // create, write whole, (fsync,) close
	opRead                 // open, read whole, close
	opAppend               // open, append, (fsync,) close
	opDelete               // remove
	numOpKinds
)

var opNames = [numOpKinds]string{"create", "read", "append", "delete"}

// op is one application-level operation on a thread-private file.
type op struct {
	Kind opKind
	File uint32 // thread-private file number
	Off  uint32 // append: offset the data must land at (the size before it)
	Size uint32 // create/append: bytes written; read: bytes expected
}

// workload is one row of the benchmark's workload table.
type workload struct {
	Name   string
	Why    string
	System bench.System
	// Threads is the number of simulated application threads per client.
	Threads int
	// Dirs is the number of directories all threads scatter files over.
	Dirs  int
	Think time.Duration
	// MeanSize is the file (and append) size; exact when FixedSize, else the
	// mean of a clamped exponential.
	MeanSize  int
	FixedSize bool
	// Fsync forces Sync() after every create and append.
	Fsync bool
	// Mix is how many ops of each kind one block holds. A thread's stream is
	// a sequence of independently shuffled blocks, so every thread does the
	// same amount of each kind of work whatever the seed: with a free draw
	// per op the thread that happened to draw the most creates set the end
	// of the window, and ops_per_s moved 7 % between seeds (measured).
	Mix [numOpKinds]int
	// Prefill is the number of files each thread creates during set-up.
	Prefill int
	// OpsPerSecond is the throughput this workload reached when the
	// benchmark was defined; a run of S seconds issues OpsPerSecond*S ops,
	// so the op stream is a pure function of (seed, seconds) and the
	// measured window lasts about S seconds until the program gets faster.
	OpsPerSecond int
}

var workloads = []workload{
	{
		Name:   "xcdn32k-sync",
		Why:    "ordered write on the app thread: blockdev seek/rotate and a serial commit RPC dominate; bypasses core queue/pool/compound, so it is the no-change control for delayed-commit work",
		System: bench.SysRedbud, Threads: 8, Dirs: 32, Think: 100 * time.Microsecond,
		MeanSize: 32 << 10, FixedSize: true,
		Mix: [numOpKinds]int{opCreate: 16, opRead: 4}, Prefill: 8, OpsPerSecond: 160,
	},
	{
		Name:   "xcdn32k-dc",
		Why:    "the paper's headline workload: client commit queue, compound, rpc/netsim wire and mds do most of the work, so queue and batching policy must show here",
		System: bench.SysRedbudDC, Threads: 8, Dirs: 32, Think: 100 * time.Microsecond,
		MeanSize: 32 << 10, FixedSize: true,
		Mix: [numOpKinds]int{opCreate: 16, opRead: 4}, Prefill: 8, OpsPerSecond: 320,
	},
	{
		Name:   "xcdn32k-dcsd",
		Why:    "space delegation makes data path and allocation cheap, leaving the synchronous create and the mds/meta journal as the wall; blockdev and commit-queue work do little here",
		System: bench.SysRedbudDCSD, Threads: 4, Dirs: 32, Think: 100 * time.Microsecond,
		MeanSize: 32 << 10, FixedSize: true,
		Mix: [numOpKinds]int{opCreate: 16, opRead: 4}, Prefill: 8, OpsPerSecond: 2000,
	},
	{
		Name:   "varmail-dc",
		Why:    "fsync-forced commits inside a delayed-commit client, cached reads beside writes, and namespace removes; a queued-commit gain that costs fsync'd commits or reads shows here",
		System: bench.SysRedbudDC, Threads: 8, Dirs: 4, Think: 200 * time.Microsecond,
		MeanSize: 16 << 10, Fsync: true,
		Mix: [numOpKinds]int{opCreate: 5, opRead: 5, opAppend: 5, opDelete: 5}, Prefill: 16, OpsPerSecond: 960,
	},
}

func findWorkload(name string) (*workload, error) {
	for i := range workloads {
		if workloads[i].Name == name {
			return &workloads[i], nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// writeChunk is the size of one WriteAt of a create.
const writeChunk = 4096

// sizeAlign keeps every size and offset word-aligned for fillData.
const sizeAlign = 512

func (w *workload) sampleSize(rng *rand.Rand) uint32 {
	if w.FixedSize {
		return uint32(w.MeanSize)
	}
	v := int(rng.ExpFloat64() * float64(w.MeanSize))
	v = min(max(v, 4096), 4*w.MeanSize)
	return uint32(v / sizeAlign * sizeAlign)
}

// liveFile is a file that exists at some point of a thread's plan.
type liveFile struct {
	No   uint32
	Size uint32
}

// threadPlan is everything one simulated application thread will do,
// computed from the seed before the cluster exists.
type threadPlan struct {
	Client, Thread int
	Prefill        []op       // creates issued during set-up
	Ops            []op       // the measured op stream
	Survivors      []liveFile // files (and final sizes) left when Ops end
}

// planThread generates one thread's op stream. Files are private to the
// thread, so the stream and the expected final state depend on nothing but
// the seed.
func planThread(w *workload, seed int64, client, thread, nOps int) threadPlan {
	rng := rand.New(rand.NewSource(int64(mix64(uint64(seed)) ^ mix64(uint64(client<<16|thread)+1))))
	p := threadPlan{Client: client, Thread: thread}
	var live []liveFile
	next := uint32(0)
	create := func() op {
		f := liveFile{No: next, Size: w.sampleSize(rng)}
		next++
		live = append(live, f)
		return op{Kind: opCreate, File: f.No, Size: f.Size}
	}
	for i := 0; i < w.Prefill; i++ {
		p.Prefill = append(p.Prefill, create())
	}
	var block []opKind
	for k, n := range w.Mix {
		for ; n > 0; n-- {
			block = append(block, opKind(k))
		}
	}
	p.Ops = make([]op, 0, nOps)
	for i := 0; i < nOps; i++ {
		if i%len(block) == 0 {
			rng.Shuffle(len(block), func(a, b int) { block[a], block[b] = block[b], block[a] })
		}
		// Prefill exceeds the deletes of one block, so live is never empty.
		switch block[i%len(block)] {
		case opCreate:
			p.Ops = append(p.Ops, create())
		case opRead:
			f := live[rng.Intn(len(live))]
			p.Ops = append(p.Ops, op{Kind: opRead, File: f.No, Size: f.Size})
		case opAppend:
			f := &live[rng.Intn(len(live))]
			n := w.sampleSize(rng)
			p.Ops = append(p.Ops, op{Kind: opAppend, File: f.No, Off: f.Size, Size: n})
			f.Size += n
		case opDelete:
			i := rng.Intn(len(live))
			p.Ops = append(p.Ops, op{Kind: opDelete, File: live[i].No})
			live[i] = live[len(live)-1]
			live = live[:len(live)-1]
		}
	}
	p.Survivors = live
	return p
}

// blockLen is the number of ops in one block of the mix.
func (w *workload) blockLen() int {
	n := 0
	for _, k := range w.Mix {
		n += k
	}
	return n
}

// plan generates every thread's stream for a run of totalOps operations,
// rounded down to a whole number of blocks per thread.
func plan(w *workload, seed int64, totalOps int) []threadPlan {
	perThread := max(totalOps/(numClients*w.Threads*w.blockLen()), 1) * w.blockLen()
	var plans []threadPlan
	for c := 0; c < numClients; c++ {
		for t := 0; t < w.Threads; t++ {
			plans = append(plans, planThread(w, seed, c, t, perThread))
		}
	}
	return plans
}

// encodePlans serializes the op streams; two runs issue the same operations
// exactly when these bytes are equal.
func encodePlans(plans []threadPlan) []byte {
	var out []byte
	for _, p := range plans {
		out = binary.LittleEndian.AppendUint32(out, uint32(p.Client<<16|p.Thread))
		for _, ops := range [][]op{p.Prefill, p.Ops} {
			out = binary.LittleEndian.AppendUint32(out, uint32(len(ops)))
			for _, o := range ops {
				out = append(out, byte(o.Kind))
				out = binary.LittleEndian.AppendUint32(out, o.File)
				out = binary.LittleEndian.AppendUint32(out, o.Off)
				out = binary.LittleEndian.AppendUint32(out, o.Size)
			}
		}
	}
	return out
}

const benchRoot = "/bench"

func dirPath(d int) string { return fmt.Sprintf("%s/d%02d", benchRoot, d) }

func (w *workload) filePath(client, thread int, no uint32) string {
	return fmt.Sprintf("%s/c%dt%d-%d", dirPath(int(no)%w.Dirs), client, thread, no)
}

// fileKey seeds the deterministic content of one file.
func fileKey(seed int64, client, thread int, no uint32) uint64 {
	return mix64(mix64(uint64(seed)) + uint64(client)<<48 + uint64(thread)<<32 + uint64(no))
}

func mix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ x>>30) * 0xbf58476d1ce4e5b9
	x = (x ^ x>>27) * 0x94d049bb133111eb
	return x ^ x>>31
}

// fillData writes the file's content for bytes [off, off+len(p)) into p.
// Content is a function of (key, absolute offset), so an append continues
// the stream the create began and a misplaced block cannot verify. off and
// len(p) are multiples of 8.
func fillData(p []byte, key uint64, off int64) {
	w := uint64(off / 8)
	for i := 0; i+8 <= len(p); i += 8 {
		binary.LittleEndian.PutUint64(p[i:], mix64(key+w))
		w++
	}
}

// checkData reports whether p holds the file's content for [off, off+len(p)).
func checkData(p []byte, key uint64, off int64) bool {
	w := uint64(off / 8)
	for i := 0; i+8 <= len(p); i += 8 {
		if binary.LittleEndian.Uint64(p[i:]) != mix64(key+w) {
			return false
		}
		w++
	}
	return true
}
