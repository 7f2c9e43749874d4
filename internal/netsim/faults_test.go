package netsim

import (
	"bytes"
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"redbud/internal/clock"
	"redbud/internal/obs"
)

// recvN collects n frames from a conn, failing the test on error.
func recvN(t *testing.T, c Conn, n int) [][]byte {
	t.Helper()
	var out [][]byte
	for i := 0; i < n; i++ {
		f, err := c.Recv()
		if err != nil {
			t.Fatalf("recv %d: %v", i, err)
		}
		out = append(out, f)
	}
	return out
}

func TestFaultDropAll(t *testing.T) {
	n := newFabric(t, Instant(), "a", "b")
	n.InstallFaults(FaultPlan{Default: LinkFaults{DropProb: 1}})
	c, s := dialPair(t, n, "a", "b")
	defer c.Close()
	for i := 0; i < 5; i++ {
		if err := c.Send([]byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	// Nothing must arrive; prove it by clearing faults and sending a marker.
	st := faultCounters(n)
	n.ClearFaults()
	if err := c.Send([]byte("marker")); err != nil {
		t.Fatal(err)
	}
	f, err := s.Recv()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(f, []byte("marker")) {
		t.Fatalf("got %q, want the marker: dropped frames leaked through", f)
	}
	if st.Dropped != 5 {
		t.Fatalf("Dropped = %d, want 5", st.Dropped)
	}
}

func TestFaultDuplicate(t *testing.T) {
	n := newFabric(t, Instant(), "a", "b")
	n.InstallFaults(FaultPlan{Default: LinkFaults{DupProb: 1}})
	c, s := dialPair(t, n, "a", "b")
	defer c.Close()
	if err := c.Send([]byte("x")); err != nil {
		t.Fatal(err)
	}
	got := recvN(t, s, 2)
	if !bytes.Equal(got[0], []byte("x")) || !bytes.Equal(got[1], []byte("x")) {
		t.Fatalf("got %q, want two copies of x", got)
	}
	if st := faultCounters(n); st.Duplicated != 1 {
		t.Fatalf("Duplicated = %d, want 1", st.Duplicated)
	}
}

func TestFaultReorderSwapsPair(t *testing.T) {
	n := newFabric(t, Instant(), "a", "b")
	// Script: hold exactly the first frame, deliver the rest untouched.
	var first atomic.Bool
	first.Store(true)
	n.InstallFaults(FaultPlan{Script: func(from, to string, size int) *Decision {
		if first.CompareAndSwap(true, false) {
			return &Decision{Hold: true, HoldFor: time.Second}
		}
		return nil
	}})
	c, s := dialPair(t, n, "a", "b")
	defer c.Close()
	if err := c.Send([]byte("one")); err != nil {
		t.Fatal(err)
	}
	if err := c.Send([]byte("two")); err != nil {
		t.Fatal(err)
	}
	got := recvN(t, s, 2)
	if string(got[0]) != "two" || string(got[1]) != "one" {
		t.Fatalf("got %q,%q; want two,one (swapped)", got[0], got[1])
	}
	if st := faultCounters(n); st.Reordered != 1 {
		t.Fatalf("Reordered = %d, want 1", st.Reordered)
	}
}

func TestFaultReorderHeldFrameFlushesOnQuietLink(t *testing.T) {
	n := newFabric(t, Instant(), "a", "b")
	var first atomic.Bool
	first.Store(true)
	n.InstallFaults(FaultPlan{Script: func(from, to string, size int) *Decision {
		if first.CompareAndSwap(true, false) {
			return &Decision{Hold: true, HoldFor: time.Millisecond}
		}
		return nil
	}})
	c, s := dialPair(t, n, "a", "b")
	defer c.Close()
	if err := c.Send([]byte("lonely")); err != nil {
		t.Fatal(err)
	}
	// No successor frame is ever sent; the hold timer must flush it.
	f, err := s.Recv()
	if err != nil {
		t.Fatal(err)
	}
	if string(f) != "lonely" {
		t.Fatalf("got %q, want the held frame", f)
	}
}

func TestFaultDelaySpike(t *testing.T) {
	clk := clock.Real(1)
	n := NewNetwork(clk)
	n.AddHost("a", Instant())
	n.AddHost("b", Instant())
	n.InstallFaults(FaultPlan{Default: LinkFaults{DelayProb: 1, DelaySpike: 20 * time.Millisecond}})
	c, s := dialPair(t, n, "a", "b")
	defer c.Close()
	start := clk.Now()
	if err := c.Send([]byte("slow")); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Recv(); err != nil {
		t.Fatal(err)
	}
	if el := clk.Since(start); el < 20*time.Millisecond {
		t.Fatalf("frame arrived after %v, want >= 20ms delay spike", el)
	}
}

func TestFaultPartitionWindow(t *testing.T) {
	clk := clock.NewManual()
	n := NewNetwork(clk)
	n.AddHost("a", Instant())
	n.AddHost("b", Instant())
	n.InstallFaults(FaultPlan{Partitions: []Partition{
		{From: "*", To: "b", Start: 10 * time.Millisecond, End: 20 * time.Millisecond},
	}})
	c, s := dialPair(t, n, "a", "b")
	defer c.Close()

	send := func(tag string) {
		t.Helper()
		if err := c.Send([]byte(tag)); err != nil {
			t.Fatal(err)
		}
	}
	send("before")
	clk.Advance(15 * time.Millisecond)
	send("cut") // inside the window: dropped
	clk.Advance(10 * time.Millisecond)
	send("after")

	got := recvN(t, s, 2)
	if string(got[0]) != "before" || string(got[1]) != "after" {
		t.Fatalf("got %q,%q; want before,after with the cut frame dropped", got[0], got[1])
	}
	if st := faultCounters(n); st.Partitioned != 1 {
		t.Fatalf("Partitioned = %d, want 1", st.Partitioned)
	}
}

func TestFaultSeedDeterminism(t *testing.T) {
	// The same seed must yield the same fate sequence on a link; a
	// different seed must (for this trial count) yield a different one.
	fates := func(seed int64) string {
		n := newFabric(t, Instant(), "a", "b")
		n.InstallFaults(FaultPlan{Seed: seed, Default: LinkFaults{DropProb: 0.3, DupProb: 0.2}})
		c, s := dialPair(t, n, "a", "b")
		defer c.Close()
		var buf bytes.Buffer
		for i := 0; i < 64; i++ {
			if err := c.Send([]byte{byte(i)}); err != nil {
				t.Fatal(err)
			}
		}
		st := faultCounters(n)
		delivered := 64 - int(st.Dropped) + int(st.Duplicated)
		seen := recvN(t, s, delivered)
		for _, f := range seen {
			fmt.Fprintf(&buf, "%d,", f[0])
		}
		return buf.String()
	}
	a1, a2, b := fates(7), fates(7), fates(8)
	if a1 != a2 {
		t.Fatalf("same seed diverged:\n%s\n%s", a1, a2)
	}
	if a1 == b {
		t.Fatalf("different seeds produced identical fault schedules")
	}
}

func TestFaultPerLinkOverride(t *testing.T) {
	n := newFabric(t, Instant(), "a", "b", "c")
	n.InstallFaults(FaultPlan{
		Default: LinkFaults{},
		Links:   map[string]LinkFaults{"c": {DropProb: 1}},
	})
	cb, sb := dialPair(t, n, "a", "b")
	defer cb.Close()
	cc, sc := dialPair(t, n, "a", "c")
	defer cc.Close()
	if err := cb.Send([]byte("to-b")); err != nil {
		t.Fatal(err)
	}
	if err := cc.Send([]byte("to-c")); err != nil {
		t.Fatal(err)
	}
	if f, err := sb.Recv(); err != nil || string(f) != "to-b" {
		t.Fatalf("b recv = %q, %v; want to-b", f, err)
	}
	// c's frame must have been dropped; verify via the counter rather than
	// waiting on a receive that would never return.
	if st := faultCounters(n); st.Dropped != 1 {
		t.Fatalf("Dropped = %d, want 1 (only the a->c frame)", st.Dropped)
	}
	_ = sc
}

// faultCounters reads the injector's counters the way an operator does:
// through the registry.
func faultCounters(n *Network) FaultStats {
	reg := obs.NewRegistry()
	n.RegisterMetrics(reg)
	return FaultsIn(reg.Snapshot())
}
