package main

import (
	"bytes"
	"encoding/json"
	"os"
	"reflect"
	"strings"
	"testing"
)

func TestOpStreamIsAFunctionOfTheSeed(t *testing.T) {
	for i := range workloads {
		w := &workloads[i]
		a := encodePlans(plan(w, 7, 2000))
		if b := encodePlans(plan(w, 7, 2000)); !bytes.Equal(a, b) {
			t.Errorf("%s: same seed gave different op streams", w.Name)
		}
		if b := encodePlans(plan(w, 8, 2000)); bytes.Equal(a, b) {
			t.Errorf("%s: different seeds gave the same op stream", w.Name)
		}
	}
}

func TestFillDataVerifiesOnlyAtItsOwnOffset(t *testing.T) {
	p := make([]byte, 4096)
	fillData(p, 42, 8192)
	if !checkData(p, 42, 8192) {
		t.Fatal("fill does not verify against itself")
	}
	if checkData(p, 42, 4096) || checkData(p, 43, 8192) {
		t.Fatal("fill verifies at another offset or under another key")
	}
}

// resultLine is the driver's contract for the last line of standard output.
type resultLine struct {
	Correct   *bool `json:"correct"`
	Attempted int   `json:"attempted"`
	Failed    *int  `json:"failed"`
	Metrics   map[string]struct {
		Value *float64 `json:"value"`
		Unit  string   `json:"unit"`
	} `json:"metrics"`
}

func checkResultLine(t *testing.T, res *result, defs []metricDef) {
	t.Helper()
	var out bytes.Buffer
	if err := res.printJSON(&out); err != nil {
		t.Fatal(err)
	}
	var line resultLine
	dec := json.NewDecoder(&out)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&line); err != nil {
		t.Fatalf("result line %q: %v", out.String(), err)
	}
	if line.Correct == nil || line.Failed == nil || *line.Failed != 0 || line.Attempted < 1 {
		t.Errorf("result line %q lacks correct/attempted/failed", out.String())
	}
	if len(line.Metrics) != len(defs) {
		t.Errorf("result line has %d metrics, want %d", len(line.Metrics), len(defs))
	}
	for _, d := range defs {
		m, ok := line.Metrics[d.Name]
		if !ok || m.Value == nil || m.Unit != d.Unit {
			t.Errorf("metric %s: got %+v, want a value with unit %q", d.Name, m, d.Unit)
		}
	}
}

// TestQuickRunEmitsEveryMetric runs every workload end to end at ≈200 ops,
// traced, which exercises the untraced path too, and requires each run to
// pass the correctness gate and to report every metric of both tables.
func TestQuickRunEmitsEveryMetric(t *testing.T) {
	for i := range workloads {
		w := &workloads[i]
		t.Run(w.Name, func(t *testing.T) {
			t.Parallel()
			res, err := measure(w, config{seed: 3, quick: true, trace: true})
			if err != nil {
				t.Fatal(err)
			}
			for _, why := range res.invalid {
				// Parallel tests legitimately overload the host; anything
				// else means the trace cannot be trusted.
				if !strings.HasPrefix(why, "host.cpu_util") {
					t.Errorf("run invalid: %s", why)
				}
			}
			for _, d := range endToEndDefs {
				if res.endToEnd[d.Name] <= 0 {
					t.Errorf("end-to-end metric %s = %v, must never be 0", d.Name, res.endToEnd[d.Name])
				}
			}
			checkResultLine(t, res, perLayerDefs)
			res.cfg.trace = false
			checkResultLine(t, res, endToEndDefs)
			var report bytes.Buffer
			res.print(&report)
			if !strings.Contains(report.String(), "clock.Real(1) sleep p50") {
				t.Error("report header lacks the clock calibration")
			}
		})
	}
}

func TestInjectedMismatchFailsTheRun(t *testing.T) {
	t.Parallel()
	var stdout, stderr bytes.Buffer
	code := realMain([]string{"-workload", "xcdn32k-dcsd", "-quick", "-inject-mismatch"}, &stdout, &stderr)
	if code == 0 {
		t.Fatalf("exit code 0 with a corrupted file; stdout:\n%s", stdout.String())
	}
	if stdout.Len() != 0 {
		t.Errorf("a failed run must print no metrics, got:\n%s", stdout.String())
	}
	if !strings.Contains(stderr.String(), "content mismatch") {
		t.Errorf("stderr does not name the mismatch:\n%s", stderr.String())
	}
}

func TestUsageErrors(t *testing.T) {
	for _, args := range [][]string{
		{}, {"-workload", "nope"}, {"-workload", "varmail-dc", "-all"}, {"-workload", "varmail-dc", "-trace", "2"},
	} {
		if code := realMain(args, &bytes.Buffer{}, &bytes.Buffer{}); code != 2 {
			t.Errorf("args %v: exit code %d, want 2", args, code)
		}
	}
}

// TestManifestMatchesTables keeps BENCHMARK.json in step with the tables the
// driver prints from.
func TestManifestMatchesTables(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type metric struct {
		Name   string   `json:"name"`
		Unit   string   `json:"unit"`
		Better string   `json:"better"`
		Bound  *float64 `json:"bound,omitempty"`
	}
	var m struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct {
			Name string `json:"name"`
			Why  string `json:"why"`
		} `json:"workloads"`
		EndToEnd []metric `json:"end_to_end"`
		PerLayer []metric `json:"per_layer"`
	}
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&m); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(m.Command, []string{"bash", "benchmark/run.sh"}) || !reflect.DeepEqual(m.Paths, []string{"benchmark"}) {
		t.Errorf("command %v, paths %v", m.Command, m.Paths)
	}
	if len(m.Workloads) != len(workloads) {
		t.Fatalf("manifest has %d workloads, driver has %d", len(m.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if m.Workloads[i].Name != w.Name || m.Workloads[i].Why != w.Why {
			t.Errorf("workload %d: manifest %+v, driver %s / %s", i, m.Workloads[i], w.Name, w.Why)
		}
		if len(w.Why) > 200 {
			t.Errorf("%s: why is %d characters, limit 200", w.Name, len(w.Why))
		}
	}
	same := func(kind string, got []metric, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%s: manifest has %d metrics, driver has %d", kind, len(got), len(want))
		}
		for i, d := range want {
			g := got[i]
			if g.Name != d.Name || g.Unit != d.Unit || g.Better != d.Better {
				t.Errorf("%s %d: manifest %+v, driver %+v", kind, i, g, d)
			}
			if bounded != (g.Bound != nil) || (bounded && *g.Bound != d.Bound) {
				t.Errorf("%s %s: bound differs from the driver's %v", kind, d.Name, d.Bound)
			}
		}
	}
	same("end_to_end", m.EndToEnd, endToEndDefs, true)
	same("per_layer", m.PerLayer, perLayerDefs, false)
}
