package main

import (
	"math"
	"runtime"
	"sort"
	"syscall"
	"time"

	"redbud/internal/clock"
)

// hostUsage is the host ledger: what the simulator process itself cost.
type hostUsage struct {
	CPU        time.Duration // user + system
	Mallocs    uint64
	AllocBytes uint64
	GCPause    time.Duration
	HeapSys    uint64 // heap obtained from the OS so far; never shrinks
}

func readHost() hostUsage {
	var ru syscall.Rusage
	// Getrusage(RUSAGE_SELF) cannot fail with a valid pointer.
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return hostUsage{
		CPU:        time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		Mallocs:    ms.Mallocs,
		AllocBytes: ms.TotalAlloc,
		GCPause:    time.Duration(ms.PauseTotalNs),
		HeapSys:    ms.HeapSys,
	}
}

// since returns the usage accumulated after start (HeapSys stays absolute).
func (h hostUsage) since(start hostUsage) hostUsage {
	h.CPU -= start.CPU
	h.Mallocs -= start.Mallocs
	h.AllocBytes -= start.AllocBytes
	h.GCPause -= start.GCPause
	return h
}

// sleepAsks are the modeled durations the calibration asks clock.Real(1) for:
// one MDS op, one think time, a short seek, a long seek plus rotation.
var sleepAsks = []time.Duration{15 * time.Microsecond, 100 * time.Microsecond, time.Millisecond, 5 * time.Millisecond}

// calibrateClock measures what a modeled sleep really costs on this host:
// the p50 wall time, in microseconds, of n sleeps per ask. This is the
// simulator's own measurement error and is printed beside every result.
func calibrateClock(n int) []float64 {
	clk := clock.Real(1)
	out := make([]float64, len(sleepAsks))
	took := make([]time.Duration, n)
	for i, ask := range sleepAsks {
		for j := range took {
			t0 := time.Now()
			clk.Sleep(ask)
			took[j] = time.Since(t0)
		}
		out[i] = float64(percentile(took, 0.50)) / float64(time.Microsecond)
	}
	return out
}

// percentile estimates the q-quantile of d (0 when empty) as the mean of the
// samples whose rank lies within half the distance to the nearer end around
// q: ranks 25-75 % for p50 (the interquartile mean), 92.5-97.5 % for p95.
// Latencies here come in lumps one modeled sleep (1.1 ms) apart, and a
// single-rank quantile that falls between two lumps jumps from one to the
// other between identical runs (read_p50_ms of xcdn32k-dc: 3.1 to 3.8 ms,
// quartile spread 14 % over ten seeds; 5 % with the band); a band of ranks
// moves in proportion instead. It sorts d in place.
func percentile(d []time.Duration, q float64) time.Duration {
	if len(d) == 0 {
		return 0
	}
	sort.Slice(d, func(i, j int) bool { return d[i] < d[j] })
	half := min(q, 1-q) / 2
	lo := int(math.Floor((q - half) * float64(len(d))))
	hi := max(int(math.Ceil((q+half)*float64(len(d)))), lo+1)
	var sum time.Duration
	for _, v := range d[lo:hi] {
		sum += v
	}
	return sum / time.Duration(hi-lo)
}
