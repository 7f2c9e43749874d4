package workload

import (
	"fmt"
	"time"

	"redbud/internal/clock"
	"redbud/internal/fsapi"
)

// ConflictResult reports the conflict-read probe: for every BT block, how
// long after the writer's WriteAt returned a second mount first observed the
// block's content.
type ConflictResult struct {
	Blocks    int
	Latencies []time.Duration
	Elapsed   time.Duration
}

// MeanLatency is the average time-to-visibility across blocks.
func (r ConflictResult) MeanLatency() time.Duration {
	if len(r.Latencies) == 0 {
		return 0
	}
	var sum time.Duration
	for _, d := range r.Latencies {
		sum += d
	}
	return sum / time.Duration(len(r.Latencies))
}

// RunBTConflict measures the paper's conflict-read path (§V-C) directly:
// rank blocks are written through the writer mount in BT's interleaved
// order, and after each block a reader on a different mount polls until it
// observes the block's marker bytes. The poll re-opens the file each probe —
// the attr fetch plus layout probe a cold conflict reader performs — so each
// latency is how long the writer's commit took to land after its WriteAt
// returned. There is no drain between write and poll: the commit pipeline
// races the reader, which is the point.
func RunBTConflict(writer, reader fsapi.FileSystem, clk clock.Clock, spec BTSpec) (ConflictResult, error) {
	if clk == nil {
		clk = clock.Real(1)
	}
	if writer == nil || reader == nil || writer == reader {
		return ConflictResult{}, fmt.Errorf("workload: BT conflict needs two distinct mounts")
	}
	if spec.Ranks <= 0 || spec.Steps <= 0 || spec.BlockSize <= 0 {
		return ConflictResult{}, fmt.Errorf("workload: bad BT spec %+v", spec)
	}
	if err := writer.Mkdir("/npb"); err != nil {
		return ConflictResult{}, err
	}
	const path = "/npb/conflict.out"
	wf, err := writer.Create(path)
	if err != nil {
		return ConflictResult{}, err
	}
	defer wf.Close()

	res := ConflictResult{}
	start := clk.Now()
	buf := make([]byte, spec.BlockSize)
	for st := 0; st < spec.Steps; st++ {
		for r := 0; r < spec.Ranks; r++ {
			off := spec.blockOff(st, r)
			want := spec.marker(st, r)
			if _, err := wf.WriteAt(fill(spec.BlockSize, want), off); err != nil {
				return res, err
			}
			wrote := clk.Now()
			for {
				rf, err := reader.Open(path)
				if err != nil {
					return res, err
				}
				n, err := rf.ReadAt(buf, off)
				rf.Close()
				if err != nil {
					return res, err
				}
				if int64(n) == spec.BlockSize &&
					buf[0] == want && buf[spec.BlockSize-1] == byte(spec.BlockSize-1)*13+want {
					break
				}
				clk.Sleep(50 * time.Microsecond)
			}
			res.Blocks++
			res.Latencies = append(res.Latencies, clk.Now().Sub(wrote))
		}
	}
	res.Elapsed = clk.Now().Sub(start)
	return res, nil
}
