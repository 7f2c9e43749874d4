package rpc

import (
	"errors"
	"runtime"
	"testing"
	"time"
)

func TestInFlightCallFailsWithErrConnClosed(t *testing.T) {
	cli, _ := newPair(t, ServerConfig{Daemons: 1})
	done := make(chan error, 1)
	go func() {
		_, err := cli.CallRaw(opSlow, nil)
		done <- err
	}()
	time.Sleep(5 * time.Millisecond)
	cli.Close()
	err := <-done
	if !errors.Is(err, ErrConnClosed) {
		t.Fatalf("in-flight call err = %v, want ErrConnClosed", err)
	}
	if errors.Is(err, ErrBadFrame) {
		t.Fatalf("conn death must be distinguishable from frame corruption, got %v", err)
	}
	// New calls after the death report both the closed client and the cause.
	_, err = cli.CallRaw(opEcho, nil)
	if !errors.Is(err, ErrClientClosed) || !errors.Is(err, ErrConnClosed) {
		t.Fatalf("post-death call err = %v, want ErrClientClosed wrapping ErrConnClosed", err)
	}
}

func TestCallTimeout(t *testing.T) {
	cli, _ := newPair(t, ServerConfig{Daemons: 1})
	cli.SetCallTimeout(5 * time.Millisecond)
	_, err := cli.CallRaw(opSlow, nil) // opSlow sleeps 20ms
	if !errors.Is(err, ErrTimeout) {
		t.Fatalf("err = %v, want ErrTimeout", err)
	}
	// The late response for the timed-out call must be dropped, not
	// delivered to a later call: issue fresh calls and check their replies.
	cli.SetCallTimeout(0)
	for i := 0; i < 4; i++ {
		got, err := cli.CallRaw(opEcho, []byte{byte(i)})
		if err != nil {
			t.Fatalf("call %d after timeout: %v", i, err)
		}
		if len(got) != 1 || got[0] != byte(i) {
			t.Fatalf("call %d got %v, want [%d]: late response leaked", i, got, i)
		}
	}
}

func TestCallTimeoutZeroWaitsForever(t *testing.T) {
	cli, _ := newPair(t, ServerConfig{Daemons: 1})
	cli.SetCallTimeout(0)
	start := time.Now()
	if _, err := cli.CallRaw(opSlow, nil); err != nil {
		t.Fatal(err)
	}
	if time.Since(start) < 15*time.Millisecond {
		t.Fatal("slow call returned early")
	}
}

// A call timeout that never fires must leave nothing behind: clock.Real's
// After used to park one goroutine per call for the whole timeout, so a
// client with a call timeout (every chaos client) carried one sleeping
// goroutine per call it had completed in the last timeout period.
func TestAnsweredCallsLeaveNoGoroutines(t *testing.T) {
	cli, _ := newPair(t, ServerConfig{Daemons: 2})
	cli.SetCallTimeout(5 * time.Second)
	if _, err := cli.CallRaw(opEcho, nil); err != nil {
		t.Fatal(err)
	}
	before := runtime.NumGoroutine()
	for i := 0; i < 10000; i++ {
		if _, err := cli.CallRaw(opEcho, nil); err != nil {
			t.Fatal(err)
		}
	}
	if after := runtime.NumGoroutine(); after > before+10 {
		t.Fatalf("goroutines grew from %d to %d over 10000 answered calls", before, after)
	}
}
