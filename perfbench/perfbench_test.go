package main

import (
	"encoding/json"
	"os"
	"testing"
)

// spec is the part of BENCHMARK.json the smoke test checks against.
type spec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func readSpec(t *testing.T) spec {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var s spec
	if err := json.Unmarshal(data, &s); err != nil {
		t.Fatal(err)
	}
	if len(s.Workloads) == 0 {
		t.Fatal("BENCHMARK.json names no workload")
	}
	return s
}

// tiny is a run small enough for a unit test: about 2.6k rects a side on
// the paper maps and 1000 on the clusters.
func tiny(workload string, trace bool) config {
	return config{workload: workload, seed: 7, seconds: 0.05, trace: trace, scale: 0.01, reps: 2}
}

// TestSmoke runs every workload untraced and traced at a tiny scale: each
// run must emit exactly the metrics BENCHMARK.json names, with their
// units, and no op may fail.
func TestSmoke(t *testing.T) {
	s := readSpec(t)
	for _, wl := range s.Workloads {
		for _, trace := range []bool{false, true} {
			want := map[string]string{}
			if trace {
				for _, m := range s.PerLayer {
					want[m.Name] = m.Unit
				}
			} else {
				for _, m := range s.EndToEnd {
					want[m.Name] = m.Unit
				}
			}
			cfg := tiny(wl.Name, trace)
			if trace {
				cfg.traceOut = t.TempDir() + "/trace.json"
			}
			res, _, err := run(cfg)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", wl.Name, trace, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d, want every op correct",
					wl.Name, trace, res.Correct, res.Attempted, res.Failed)
			}
			for name, unit := range want {
				m, ok := res.Metrics[name]
				if !ok {
					t.Errorf("%s trace=%v: metric %s missing", wl.Name, trace, name)
				} else if m.Unit != unit {
					t.Errorf("%s trace=%v: metric %s unit %q, want %q", wl.Name, trace, name, m.Unit, unit)
				}
			}
			for name := range res.Metrics {
				if _, ok := want[name]; !ok {
					t.Errorf("%s trace=%v: metric %s is not in BENCHMARK.json", wl.Name, trace, name)
				}
			}
			if !trace && res.Metrics["ok_frac"].Value != 1 {
				t.Errorf("%s: ok_frac = %v, want 1", wl.Name, res.Metrics["ok_frac"].Value)
			}
		}
	}
}

// TestCorruptReferenceFails proves the oracle can fail: with every
// reference digest flipped after the engines agreed, every measured op
// must count as failed.
func TestCorruptReferenceFails(t *testing.T) {
	for _, wl := range readSpec(t).Workloads {
		cfg := tiny(wl.Name, false)
		cfg.corrupt = true
		res, _, err := run(cfg)
		if err != nil {
			t.Fatalf("%s: %v", wl.Name, err)
		}
		if res.Correct || res.Failed != res.Attempted || res.Attempted < 1 {
			t.Errorf("%s: correct=%v attempted=%d failed=%d, want every op failed",
				wl.Name, res.Correct, res.Attempted, res.Failed)
		}
		if got := res.Metrics["ok_frac"].Value; got != 0 {
			t.Errorf("%s: ok_frac = %v, want 0", wl.Name, got)
		}
	}
}

// TestTailPercentile pins the rule behind join_tail_ms: the highest whole
// percentile with at least ten samples beyond it.
func TestTailPercentile(t *testing.T) {
	for _, tc := range []struct{ n, want int }{{5, 50}, {20, 50}, {36, 72}, {100, 90}, {1000, 99}} {
		p := tailPercentile(tc.n)
		if p != tc.want {
			t.Errorf("tailPercentile(%d) = %d, want %d", tc.n, p, tc.want)
		}
		if tc.n > 20 {
			v := make([]float64, tc.n)
			for i := range v {
				v[i] = float64(i)
			}
			if beyond := tc.n - 1 - int(percentile(v, p)); beyond < 10 {
				t.Errorf("n=%d p%d: %d samples beyond, want >= 10", tc.n, p, beyond)
			}
		}
	}
}

// TestGuardedCountsPanics pins that an op panicking on the client
// goroutine is counted as a failure, not the end of the run, and that the
// layer span it left open is closed with its op, so the next op's spans
// nest under that op's root.
func TestGuardedCountsPanics(t *testing.T) {
	tr := newTracer()
	c := &opCtx{workers: 1, procs: 1, tr: tr}
	h := &harness{refs: []ref{refOf(nil)}}
	h.do(c, 0, 0, nil, func(_ int, c *opCtx) outcome {
		c.tr.begin("partjoin.join")
		panic("engine failed")
	})
	if h.attempted != 1 || h.failed != 1 {
		t.Fatalf("after a panic: attempted=%d failed=%d, want 1 and 1", h.attempted, h.failed)
	}
	h.do(c, 1, 1, nil, func(_ int, c *opCtx) outcome {
		c.tr.begin("rtree.build")
		c.tr.end()
		return outcome{}
	})
	if h.failed != 1 || tr.depth() != 0 {
		t.Fatalf("after a clean op: failed=%d open spans=%d, want 1 and 0", h.failed, tr.depth())
	}
	last := tr.spans[len(tr.spans)-1]
	if root := tr.spans[last.Parent]; root.Name != "op" || root.Op != 1 || root.Parent != -1 {
		t.Errorf("%s nests under %+v, want the root span of op 1", last.Name, root)
	}
}
