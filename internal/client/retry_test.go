package client

import (
	"errors"
	"fmt"
	"math/rand"
	"sync/atomic"
	"testing"
	"time"

	"redbud/internal/netsim"
	"redbud/internal/obs"
	"redbud/internal/proto"
	"redbud/internal/rpc"
)

// ---------------------------------------------------------------------------
// backoffDelay: cap, jitter envelope, and seed determinism.

func TestBackoffDelayTable(t *testing.T) {
	cases := []struct {
		name      string
		attempt   int
		base, max time.Duration
		lo, hi    time.Duration // jitter envelope [cap/2, cap]
	}{
		{"first attempt", 0, time.Millisecond, 200 * time.Millisecond, 500 * time.Microsecond, time.Millisecond},
		{"third attempt doubles twice", 2, time.Millisecond, 200 * time.Millisecond, 2 * time.Millisecond, 4 * time.Millisecond},
		{"deep attempt hits the cap", 20, time.Millisecond, 200 * time.Millisecond, 100 * time.Millisecond, 200 * time.Millisecond},
		{"cap clamps mid-doubling", 4, 10 * time.Millisecond, 40 * time.Millisecond, 20 * time.Millisecond, 40 * time.Millisecond},
		{"zero config uses defaults", 0, 0, 0, 500 * time.Microsecond, time.Millisecond},
	}
	rng := rand.New(rand.NewSource(1))
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			for i := 0; i < 200; i++ {
				d := backoffDelay(tc.attempt, tc.base, tc.max, rng)
				if d < tc.lo || d > tc.hi {
					t.Fatalf("delay %v outside [%v, %v]", d, tc.lo, tc.hi)
				}
			}
		})
	}
}

func TestBackoffJitterDeterministicUnderSeed(t *testing.T) {
	seq := func(seed int64) []time.Duration {
		rng := rand.New(rand.NewSource(seed))
		out := make([]time.Duration, 32)
		for i := range out {
			out[i] = backoffDelay(i%6, time.Millisecond, 100*time.Millisecond, rng)
		}
		return out
	}
	a, b := seq(7), seq(7)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed diverged at %d: %v vs %v", i, a[i], b[i])
		}
	}
	c := seq(8)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds produced identical jitter sequences")
	}
}

// ---------------------------------------------------------------------------
// Retry behavior against a live cluster.

// retryClient mounts a client with an explicit retry policy and an optional
// redial function whose invocations are counted.
func (tc *testCluster) retryClient(mode Mode, delegation int64, pol RetryPolicy, redial bool) (*Client, *atomic.Int64) {
	tc.t.Helper()
	tc.nextID++
	host := fmt.Sprintf("rclient-%d", tc.nextID)
	tc.net.AddHost(host, netsim.Instant())
	dial := func() (*rpc.Client, error) {
		conn, err := tc.net.Dial(host, "mds")
		if err != nil {
			return nil, err
		}
		return rpc.NewClient(conn, tc.clk), nil
	}
	first, err := dial()
	if err != nil {
		tc.t.Fatal(err)
	}
	devs := make(map[uint32]BlockDevice, len(tc.devices))
	for id, d := range tc.devices {
		devs[id] = d
	}
	redials := new(atomic.Int64)
	cfg := Config{
		Name:            host,
		MDS:             first,
		Devices:         devs,
		Clock:           tc.clk,
		Mode:            mode,
		DelegationChunk: delegation,
		PoolInterval:    time.Millisecond,
		Retry:           pol,
	}
	if redial {
		cfg.Redial = func(int) (*rpc.Client, error) {
			redials.Add(1)
			return dial()
		}
	}
	return New(cfg), redials
}

func TestIdempotentCallRetriesAcrossReconnect(t *testing.T) {
	tc := newCluster(t)
	c, redials := tc.retryClient(SyncCommit, 0, RetryPolicy{
		MaxAttempts: 4, BaseDelay: time.Millisecond, MaxDelay: 4 * time.Millisecond,
	}, true)
	defer c.Close()
	// Another mount's file: one of its own the client would hold the
	// delegation on, and Stat would not reach the wire at all.
	w := tc.client(SyncCommit, 0)
	defer w.Close()
	writeFile(t, w, "/pre", pattern(4096, 1))
	// Kill the live connection out from under the client: the idempotent
	// Lookup behind Stat must redial and succeed.
	mds, _ := c.links[0].conn()
	mds.Close()
	info, err := c.Stat("/pre")
	if err != nil {
		t.Fatalf("Stat after connection death = %v, want retried success", err)
	}
	if info.Size != 4096 {
		t.Fatalf("Stat size = %d, want 4096", info.Size)
	}
	if redials.Load() == 0 {
		t.Fatal("retry succeeded without a recorded redial")
	}
}

func TestNonIdempotentOpsAreNotRetried(t *testing.T) {
	tc := newCluster(t)
	c, redials := tc.retryClient(SyncCommit, 0, RetryPolicy{
		MaxAttempts: 4, BaseDelay: time.Millisecond, MaxDelay: 4 * time.Millisecond,
	}, true)
	mds, _ := c.links[0].conn()
	mds.Close()
	if _, err := c.Create("/f"); err == nil {
		t.Fatal("Create on a dead connection succeeded; a duplicate create could have been sent")
	}
	if n := redials.Load(); n != 0 {
		t.Fatalf("non-idempotent Create triggered %d redials, want 0", n)
	}
}

// waitDelegationQuiet waits until the space pool's background refill has
// landed (first blocking refill plus the standby prefetch launched on
// promotion), so no stray Delegate reply races an armed fault script. The
// tests write far less than a chunk, so no later swap starts another refill.
func waitDelegationQuiet(t *testing.T, c *Client) {
	t.Helper()
	pool := c.links[0].space.Load()
	if pool == nil {
		return
	}
	deadline := time.Now().Add(2 * time.Second)
	for {
		_, refills, _ := pool.Stats()
		if refills >= 2 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatal("delegation refill never settled")
		}
		time.Sleep(time.Millisecond)
	}
}

// armDropNextFromMDS installs a scripted fault that discards exactly the next
// frame the MDS sends to anyone — in these tests, a commit reply.
func armDropNextFromMDS(tc *testCluster) {
	var armed atomic.Bool
	armed.Store(true)
	tc.net.InstallFaults(netsim.FaultPlan{
		Script: func(from, to string, n int) *netsim.Decision {
			if from == "mds" && armed.CompareAndSwap(true, false) {
				return &netsim.Decision{Drop: true}
			}
			return nil
		},
	})
}

// TestDroppedCommitReplyFailsWithoutRetry is the pre-retry baseline: with the
// old single-attempt behavior (MaxAttempts 1), losing a commit reply turns
// into a hard error at the durability point.
func TestDroppedCommitReplyFailsWithoutRetry(t *testing.T) {
	tc := newCluster(t)
	c, _ := tc.retryClient(SyncCommit, 1<<20, RetryPolicy{
		MaxAttempts: 1, CallTimeout: 30 * time.Millisecond,
	}, false)
	defer c.Close()
	f, err := c.Create("/victim")
	if err != nil {
		t.Fatal(err)
	}
	// Warm write: delegation grant and first commit happen unfaulted.
	if _, err := f.WriteAt(pattern(4096, 1), 0); err != nil {
		t.Fatal(err)
	}
	waitDelegationQuiet(t, c)
	armDropNextFromMDS(tc)
	defer tc.net.ClearFaults()
	_, err = f.WriteAt(pattern(4096, 2), 4096)
	if err == nil {
		t.Fatal("write with dropped commit reply succeeded under the no-retry config")
	}
	if !errors.Is(err, rpc.ErrTimeout) {
		t.Fatalf("err = %v, want ErrTimeout", err)
	}
}

// TestDroppedCommitReplyRecoveredByRetryDedup is the regression pair of the
// test above: the same fault with retry enabled succeeds, and the
// retransmission is answered from the MDS dedup table rather than re-applied.
func TestDroppedCommitReplyRecoveredByRetryDedup(t *testing.T) {
	tc := newCluster(t)
	c, _ := tc.retryClient(SyncCommit, 1<<20, RetryPolicy{
		MaxAttempts: 4, BaseDelay: time.Millisecond, MaxDelay: 8 * time.Millisecond,
		CallTimeout: 30 * time.Millisecond,
	}, false)
	defer c.Close()
	f, err := c.Create("/victim")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt(pattern(4096, 1), 0); err != nil {
		t.Fatal(err)
	}
	waitDelegationQuiet(t, c)
	armDropNextFromMDS(tc)
	defer tc.net.ClearFaults()
	if _, err := f.WriteAt(pattern(4096, 2), 4096); err != nil {
		t.Fatalf("retry+dedup failed to recover the dropped commit reply: %v", err)
	}
	reg := obs.NewRegistry()
	tc.mds.RegisterMetrics(reg)
	if hits, _ := reg.Snapshot().Get("redbud_mds_dedup_hits_total"); hits.Value < 1 {
		t.Fatalf("dedup hits = %d, want >= 1: the retransmission was re-applied, not deduped", hits.Value)
	}
	// The recovered commit left the store consistent and the data readable.
	bad := tc.store.CheckConsistent(func(dev int, off, n int64) bool {
		return tc.devices[uint32(dev)].IsDurable(off, n)
	})
	if len(bad) != 0 {
		t.Fatalf("inconsistent after recovered commit: %+v", bad)
	}
	got := readFile(t, c, "/victim")
	want := append(pattern(4096, 1), pattern(4096, 2)...)
	if len(got) != len(want) {
		t.Fatalf("read %d bytes, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("byte %d = %d, want %d", i, got[i], want[i])
		}
	}
}

// TestCrashDoesNotRedial: a crash is power loss. A call in flight when the
// connections die must die with them — on a client that can redial it would
// otherwise reconnect, retry, and land after the crash.
func TestCrashDoesNotRedial(t *testing.T) {
	gc := newGatedCluster(t)
	var redials atomic.Int64
	c := gc.mount(DelayedCommit, func(host string, cfg *Config) {
		cfg.Redial = func(int) (*rpc.Client, error) {
			redials.Add(1)
			return gc.dial(host), nil
		}
	})
	f, err := c.Create("/victim")
	if err != nil {
		t.Fatal(err)
	}
	release := gc.gate.holdOp(proto.OpLayoutGet)
	defer release()
	if _, err := f.WriteAt(pattern(8192, 1), 0); err != nil {
		t.Fatal(err)
	}
	gc.gate.waitArrival(t, proto.OpLayoutGet) // the write-back routine is parked mid-call
	returns(t, "Crash with a layout-get in flight", c.Crash)
	if n := redials.Load(); n != 0 {
		t.Fatalf("crashed client redialled %d times", n)
	}
	if _, err := c.Stat("/victim"); err == nil {
		t.Fatal("Stat on a crashed client succeeded")
	}
	if n := redials.Load(); n != 0 {
		t.Fatalf("crashed client redialled %d times on a later call", n)
	}
}
