package workload

import (
	"errors"
	"math/rand"
	"sync"
	"testing"
	"time"

	"redbud/internal/clock"
	"redbud/internal/fsapi"
)

func TestSizeDistFixed(t *testing.T) {
	d := SizeDist{Mean: 32 << 10, Fixed: true}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 10; i++ {
		if got := d.sample(rng); got != 32<<10 {
			t.Fatalf("fixed sample = %d", got)
		}
	}
}

func TestSizeDistVariableBounds(t *testing.T) {
	d := SizeDist{Mean: 64 << 10}
	rng := rand.New(rand.NewSource(2))
	var sum int64
	const n = 2000
	for i := 0; i < n; i++ {
		v := d.sample(rng)
		if v < 4096 || v > 4*d.Mean {
			t.Fatalf("sample %d out of bounds", v)
		}
		sum += v
	}
	mean := sum / n
	if mean < d.Mean/3 || mean > 2*d.Mean {
		t.Fatalf("sample mean %d far from %d", mean, d.Mean)
	}
}

func TestRunAgainstMemFS(t *testing.T) {
	spec := Fileserver(42)
	spec.Threads = 4
	spec.OpsPerThread = 50
	spec.Think = 0
	res, err := Run(fsapi.NewMemFS(), clock.Real(1), spec)
	if err != nil {
		t.Fatal(err)
	}
	if res.Ops != 200 {
		t.Fatalf("ops = %d", res.Ops)
	}
	if res.Errors != 0 {
		t.Fatalf("errors = %d", res.Errors)
	}
	if res.BytesWritten == 0 || res.BytesRead == 0 {
		t.Fatalf("bytes = %d/%d", res.BytesWritten, res.BytesRead)
	}
	if res.Duration <= 0 || res.Throughput() <= 0 {
		t.Fatalf("duration=%v tput=%v", res.Duration, res.Throughput())
	}
}

func TestRunDeterministicOpsCount(t *testing.T) {
	for _, mk := range []func(int64) Spec{Varmail, Webproxy} {
		spec := mk(7)
		spec.Threads = 2
		spec.OpsPerThread = 30
		spec.Think = 0
		res, err := Run(fsapi.NewMemFS(), clock.Real(1), spec)
		if err != nil {
			t.Fatal(err)
		}
		if res.Ops != 60 || res.Errors != 0 {
			t.Fatalf("%s: ops=%d errors=%d", spec.Name, res.Ops, res.Errors)
		}
		// All op kinds in the mix were exercised.
		for _, w := range spec.Mix {
			if w.Weight > 10 && res.Latency[w.Kind].Count == 0 {
				t.Fatalf("%s: op %v never ran", spec.Name, w.Kind)
			}
		}
	}
}

func TestXcdnSpecShape(t *testing.T) {
	s32 := Xcdn(32<<10, 1)
	if !s32.FileSize.Fixed || s32.FileSize.Mean != 32<<10 {
		t.Fatalf("spec = %+v", s32.FileSize)
	}
	if s32.Name != "xcdn-32K" {
		t.Fatalf("name = %s", s32.Name)
	}
	s1m := Xcdn(1<<20, 1)
	if s1m.Name != "xcdn-1M" {
		t.Fatalf("name = %s", s1m.Name)
	}
	if s1m.OpsPerThread >= s32.OpsPerThread {
		t.Fatal("1M spec should do fewer ops")
	}
	res, err := Run(fsapi.NewMemFS(), clock.Real(1), s32.Scale(0.05))
	if err != nil || res.Errors != 0 {
		t.Fatalf("xcdn run: %+v, %v", res, err)
	}
}

func TestScale(t *testing.T) {
	s := Fileserver(1)
	scaled := s.Scale(0.1)
	if scaled.OpsPerThread != s.OpsPerThread/10 {
		t.Fatalf("scaled ops = %d", scaled.OpsPerThread)
	}
	if same := s.Scale(0); same.OpsPerThread != s.OpsPerThread {
		t.Fatal("invalid factor changed spec")
	}
	tiny := Spec{OpsPerThread: 2, PrefillPerThread: 1}
	if got := tiny.Scale(0.01); got.OpsPerThread != 1 || got.PrefillPerThread != 1 {
		t.Fatalf("floor failed: %+v", got)
	}
}

func TestEmptyMixRejected(t *testing.T) {
	if _, err := Run(fsapi.NewMemFS(), clock.Real(1), Spec{Name: "empty"}); err == nil {
		t.Fatal("empty mix accepted")
	}
}

func TestRunBTVerifies(t *testing.T) {
	spec := BTSpec{Ranks: 3, Steps: 5, BlockSize: 8 << 10, Seed: 9}
	res, err := RunBT([]fsapi.FileSystem{fsapi.NewMemFS()}, clock.Real(1), spec)
	if err != nil {
		t.Fatal(err)
	}
	if res.Ops != 15 {
		t.Fatalf("ops = %d", res.Ops)
	}
	if res.BytesWritten != spec.FileSize() || res.BytesRead != spec.FileSize() {
		t.Fatalf("bytes = %d/%d, want %d", res.BytesWritten, res.BytesRead, spec.FileSize())
	}
}

func TestRunBTBadSpec(t *testing.T) {
	if _, err := RunBT([]fsapi.FileSystem{fsapi.NewMemFS()}, clock.Real(1), BTSpec{}); err == nil {
		t.Fatal("bad spec accepted")
	}
	if _, err := RunBT(nil, clock.Real(1), BTSpec{Ranks: 1, Steps: 1, BlockSize: 1}); err == nil {
		t.Fatal("bad spec accepted")
	}
}

// collectiveFile wraps a MemFS file so it advertises WriteCollective; RunBT
// must take the collective path and count one op per step.
type collectiveFile struct {
	fsapi.File
	calls *int
}

func (f collectiveFile) WriteCollective(blocks []fsapi.CollectiveBlock) error {
	*f.calls++
	for _, b := range blocks {
		if _, err := f.WriteAt(b.Data, b.Off); err != nil {
			return err
		}
	}
	return nil
}

func TestRunBTUsesCollectivePath(t *testing.T) {
	calls := 0
	cfs := &collectiveFSWrap{MemFS: fsapi.NewMemFS(), calls: &calls}
	spec := BTSpec{Ranks: 4, Steps: 6, BlockSize: 4 << 10, Seed: 3}
	res, err := RunBT([]fsapi.FileSystem{cfs}, clock.Real(1), spec)
	if err != nil {
		t.Fatal(err)
	}
	if calls != 6 {
		t.Fatalf("collective calls = %d, want 6", calls)
	}
	if res.Ops != 6 {
		t.Fatalf("ops = %d, want 6 (one per step)", res.Ops)
	}
}

type collectiveFSWrap struct {
	*fsapi.MemFS
	calls *int
}

func (c *collectiveFSWrap) Create(path string) (fsapi.File, error) {
	f, err := c.MemFS.Create(path)
	if err != nil {
		return nil, err
	}
	return collectiveFile{File: f, calls: c.calls}, nil
}

func TestResultHelpers(t *testing.T) {
	r := Result{Duration: 2 * time.Second, Ops: 100, BytesWritten: 1e6, BytesRead: 1e6}
	if got := r.Throughput(); got != 50 {
		t.Fatalf("throughput = %v", got)
	}
	if got := r.MBps(); got != 1 {
		t.Fatalf("MBps = %v", got)
	}
	if (Result{}).Throughput() != 0 || (Result{}).MBps() != 0 {
		t.Fatal("zero-duration helpers nonzero")
	}
	r.Latency[OpRead].Count = 4
	r.Latency[OpRead].Total = 4 * time.Millisecond
	if r.MeanLatency(OpRead) != time.Millisecond {
		t.Fatalf("mean = %v", r.MeanLatency(OpRead))
	}
	if r.MeanLatency(OpDelete) != 0 {
		t.Fatal("empty mean nonzero")
	}
}

func TestOpKindStrings(t *testing.T) {
	for k := OpKind(0); k < nOpKinds; k++ {
		if k.String() == "?" {
			t.Fatalf("kind %d unnamed", k)
		}
	}
}

// refuseNthCreate is a MemFS whose n-th Create fails.
type refuseNthCreate struct {
	*fsapi.MemFS
	mu      sync.Mutex
	creates int
	n       int
}

var errRefused = errors.New("create refused")

func (r *refuseNthCreate) Create(path string) (fsapi.File, error) {
	r.mu.Lock()
	r.creates++
	refuse := r.creates == r.n
	r.mu.Unlock()
	if refuse {
		return nil, errRefused
	}
	return r.MemFS.Create(path)
}

// TestPrefillReturnsItsError: a create the prefill cannot make fails the
// prefill, and Run with it, before any measured operation runs.
func TestPrefillReturnsItsError(t *testing.T) {
	spec := Varmail(7)
	spec.Threads = 2
	spec.Think = 0
	measured := 0
	spec.OnOp = func(int, OpKind, string, int64) { measured++ }
	if err := Prefill(&refuseNthCreate{MemFS: fsapi.NewMemFS(), n: 3}, spec); !errors.Is(err, errRefused) {
		t.Fatalf("Prefill = %v, want the refused create", err)
	}
	if _, err := Run(&refuseNthCreate{MemFS: fsapi.NewMemFS(), n: 3}, clock.Real(1), spec); !errors.Is(err, errRefused) {
		t.Fatalf("Run = %v, want the refused create", err)
	}
	if measured != 0 {
		t.Fatalf("%d measured ops ran after a failed prefill", measured)
	}
	if err := Prefill(&refuseNthCreate{MemFS: fsapi.NewMemFS(), n: 1 << 30}, spec); err != nil {
		t.Fatalf("Prefill with no refusal: %v", err)
	}
}
