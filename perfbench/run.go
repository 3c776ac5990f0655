package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"spjoin/internal/geom"
	"spjoin/internal/runtimeobs"
	"spjoin/internal/timeline"
)

// endToEnd and perLayer name every metric with its unit. BENCHMARK.json
// lists the same names; the smoke test checks that the two agree.
var endToEnd = map[string]string{
	"setup_s":      "s",
	"join_p50_ms":  "ms",
	"join_tail_ms": "ms",
	"mrects_per_s": "Mrects/s",
	"resident_mb":  "MB",
	"ok_frac":      "frac",
}

var perLayer = map[string]string{
	"tiger.generate_ms": "ms",
	"plan.analyze_ms":   "ms",
	"plan.op_share":     "frac",

	"rtree.build_ms":       "ms",
	"rtree.build_alloc_mb": "MB",
	"rtree.nodes":          "count",
	"rtree.build_speedup":  "x",
	"rtree.op_share":       "frac",

	"parnative.join_ms":         "ms",
	"parnative.prep_ms":         "ms",
	"parnative.tasks_ms":        "ms",
	"parnative.sweep_ms":        "ms",
	"parnative.merge_ms":        "ms",
	"parnative.tasks":           "count",
	"parnative.node_pairs":      "count",
	"parnative.steal_hit_ratio": "ratio",
	"parnative.pair_skew":       "ratio",
	"parnative.busy_skew":       "ratio",
	"parnative.join_speedup":    "x",
	"parnative.op_share":        "frac",

	"partjoin.join_ms":           "ms",
	"partjoin.prep_ms":           "ms",
	"partjoin.sort_ms":           "ms",
	"partjoin.merge_ms":          "ms",
	"partjoin.pipeline_ms":       "ms",
	"partjoin.partition_busy_ms": "ms",
	"partjoin.refine_busy_ms":    "ms",
	"partjoin.sweep_busy_ms":     "ms",
	"partjoin.comparisons":       "count",
	"partjoin.candidates":        "count",
	"partjoin.duplicates":        "count",
	"partjoin.units":             "count",
	"partjoin.refined_tiles":     "count",
	"partjoin.hit_ratio":         "ratio",
	"partjoin.dup_ratio":         "ratio",
	"partjoin.resort_share":      "frac",
	"partjoin.rescatter_share":   "frac",
	"partjoin.busy_skew":         "ratio",
	"partjoin.join_speedup":      "x",
	"partjoin.warm_vs_cold":      "ratio",
	"partjoin.op_share":          "frac",

	"runtime.alloc_mb_per_join": "MB",
	"runtime.gc_pause_ms":       "ms",
	"runtime.gc_cycles":         "count",
	"runtime.sched_delay_ms":    "ms",
	"runtime.contention_ms":     "ms",

	"bench.unattributed_ms":     "ms",
	"bench.unattributed_share":  "frac",
	"bench.trace_overhead_frac": "frac",
	"bench.reference_s":         "s",
	"bench.check_ms":            "ms",
}

// config is one benchmark run.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	scale    float64 // input size as a fraction of the paper's
	reps     int     // set-up repetitions; setup_s is their median
	corrupt  bool    // flip a reference digest after the engines agreed
	traceOut string  // where the traced run writes its spans; "" for nowhere
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// report is what a run prints besides its result line.
type report struct {
	host    hostFacts
	ops     int // ops of the untraced measurement
	tailPct int // the percentile join_tail_ms reports
	layers  []layerRow
}

type hostFacts struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	CPU        string `json:"cpu"`
	Kernel     string `json:"kernel"`
	Go         string `json:"go"`
}

func host() hostFacts {
	return hostFacts{
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		CPU:        cpuModel(),
		Kernel:     geom.KernelName(),
		Go:         runtime.Version(),
	}
}

// cpuModel is the first "model name" of /proc/cpuinfo, or "unknown".
func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// harness runs one workload's ops, closed loop from this goroutine: the
// next op starts only after the previous one returned and was checked.
type harness struct {
	w    workload
	refs []ref
	// next is the index of the next op loop runs; it runs on across
	// passes so the clustered-update cycle continues.
	next              int
	attempted, failed int
	checkMS           []float64
}

// do runs op i through f under recover, with a root "op" span (pass op
// k) on traced contexts and smp bracketing it, then checks the output
// outside the timed interval.
func (h *harness) do(c *opCtx, k, i int, smp *runtimeobs.Sampler, f func(int, *opCtx) outcome) (time.Duration, outcome, runtimeobs.Health, bool) {
	if c.tr != nil {
		c.tr.op = k
	}
	depth := c.tr.depth()
	smp.Begin()
	c.tr.begin("op")
	t0 := time.Now()
	out, err := guarded(func() outcome { return f(i, c) })
	wall := time.Since(t0)
	// Closes the root span, and with it any layer span a panic left open.
	c.tr.endTo(depth)
	health := smp.End(wall.Nanoseconds(), c.workers)

	t1 := time.Now()
	got, want := refOf(out.cands), h.refs[i%len(h.refs)]
	ok := err == nil && got == want
	h.checkMS = append(h.checkMS, ms(time.Since(t1)))
	h.attempted++
	if !ok {
		h.failed++
		if wm, isWarm := h.w.(warmer); isWarm && err != nil {
			wm.forget(c.workers)
		}
		if h.failed <= 5 {
			if err != nil {
				fmt.Fprintf(os.Stderr, "perfbench: op %d: %v\n", i, err)
			} else {
				fmt.Fprintf(os.Stderr, "perfbench: op %d: %d candidates digest %016x, want %d digest %016x\n",
					i, got.n, got.digest, want.n, want.digest)
			}
		}
	}
	return wall, out, health, ok
}

// guarded runs f, turning a panic into an error so that a failing op is
// counted instead of ending the run without a result. Only a panic on
// this goroutine is caught: one in an engine's worker goroutine still
// ends the process.
func guarded(f func() outcome) (out outcome, err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("panic: %v", p)
		}
	}()
	return f(), nil
}

// untraced runs ops for d with nothing attached and returns their walls
// (ms) and the heap MB allocated per op, from MemStats read only at the
// edges.
func (h *harness) untraced(c *opCtx, d time.Duration) (walls []float64, allocMB float64) {
	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	h.loop(c, d, 3, nil, h.w.op,
		func(wall time.Duration, _ outcome, _ runtimeobs.Health) { walls = append(walls, ms(wall)) })
	runtime.ReadMemStats(&m1)
	return walls, float64(m1.TotalAlloc-m0.TotalAlloc) / float64(len(walls)) / 1e6
}

// loop runs ops from h.next on for at least d and minOps ops, calling
// each after every op.
func (h *harness) loop(c *opCtx, d time.Duration, minOps int, smp *runtimeobs.Sampler,
	f func(int, *opCtx) outcome, each func(wall time.Duration, out outcome, hl runtimeobs.Health)) {
	start := time.Now()
	for k := 0; k < minOps || time.Since(start) < d; k++ {
		wall, out, hl, _ := h.do(c, k, h.next, smp, f)
		h.next++
		each(wall, out, hl)
	}
}

func run(cfg config) (result, report, error) {
	rep := report{host: host()}
	w, err := newWorkload(cfg.workload)
	if err != nil {
		return result{}, rep, err
	}
	defer w.close()
	procs := runtime.GOMAXPROCS(0)
	var tr *tracer
	if cfg.trace {
		tr = newTracer()
	}

	// Set-up, repeated: setup_s is the median, so that work moved into
	// set-up shows without one slow repetition deciding the figure.
	var setups []float64
	for r := 0; r < max(cfg.reps, 1); r++ {
		if tr != nil {
			tr.pass, tr.op = "setup", r
		}
		runtime.GC()
		t0 := time.Now()
		w.generate(cfg.seed, cfg.scale, &opCtx{workers: procs, procs: procs, tr: tr})
		setups = append(setups, time.Since(t0).Seconds())
	}

	// The cross-engine oracle: each op's expected output comes from the
	// engine the workload does not measure, and timing starts only after
	// one pass of the measured engine agrees with every reference.
	plain := &opCtx{workers: procs, procs: procs}
	t0 := time.Now()
	h := &harness{w: w, refs: w.reference(plain)}
	refS := time.Since(t0).Seconds()
	for i := range h.refs {
		if _, _, _, ok := h.do(plain, 0, i, nil, w.op); !ok {
			return result{}, rep, fmt.Errorf("%s: the engines disagree before timing", cfg.workload)
		}
	}
	h.next, h.attempted, h.checkMS = len(h.refs), 0, nil
	if cfg.corrupt {
		for k := range h.refs {
			h.refs[k].digest ^= 1
		}
	}

	dur := time.Duration(cfg.seconds * float64(time.Second))
	res := result{Metrics: map[string]metric{}}
	if !cfg.trace {
		walls, _ := h.untraced(plain, dur)
		runtime.GC()
		var m runtime.MemStats
		runtime.ReadMemStats(&m)

		sum := 0.0
		for _, x := range walls {
			sum += x
		}
		rep.ops, rep.tailPct = len(walls), tailPercentile(len(walls))
		vals := map[string]float64{
			"setup_s":      median(setups),
			"join_p50_ms":  median(walls),
			"join_tail_ms": percentile(walls, rep.tailPct),
			"mrects_per_s": float64(w.rects()) * float64(len(walls)) / (sum / 1e3) / 1e6,
			"resident_mb":  float64(m.HeapAlloc) / 1e6,
			"ok_frac":      float64(h.attempted-h.failed) / float64(h.attempted),
		}
		for name, unit := range endToEnd {
			res.Metrics[name] = metric{Value: vals[name], Unit: unit}
		}
	} else {
		vals := h.traced(cfg, w, tr, dur, procs, &rep)
		vals["bench.reference_s"] = refS
		for name, unit := range perLayer {
			res.Metrics[name] = metric{Value: vals[name], Unit: unit}
		}
		if cfg.traceOut != "" {
			if err := writeTrace(cfg, rep, tr); err != nil {
				return result{}, rep, err
			}
		}
	}
	res.Attempted, res.Failed = h.attempted, h.failed
	res.Correct = h.failed == 0
	return res, rep, nil
}

// traced is the per-layer run. Its passes share the run's time: an
// untraced pass for the tracing-overhead baseline, the traced pass (spans,
// runtime sampler, engine timelines), a pass alternating GOMAXPROCS and
// one worker for the speed-ups and, on a warm workload, one-shot cold
// joins of the same inputs.
func (h *harness) traced(cfg config, w workload, tr *tracer, dur time.Duration, procs int, rep *report) map[string]float64 {
	vals := map[string]float64{}
	part := func(f float64) time.Duration { return time.Duration(f * float64(dur)) }

	untraced, alloc := h.untraced(&opCtx{workers: procs, procs: procs}, part(0.3))
	vals["runtime.alloc_mb_per_join"] = alloc
	rep.ops = len(untraced)

	tr.pass = "traced"
	samples := map[string][]float64{}
	add := func(name string, v float64) { samples[name] = append(samples[name], v) }
	smp := runtimeobs.NewSampler()
	h.loop(&opCtx{workers: procs, procs: procs, tr: tr, traced: true}, part(0.4), 3, smp, w.op,
		func(_ time.Duration, out outcome, hl runtimeobs.Health) { sample(add, out, hl) })

	// Speed-up: each op index at GOMAXPROCS and then at one worker, after
	// one warm-up op at each count on the same index, so that on a warm
	// workload both counts' engine states make the same changes.
	cN := &opCtx{workers: procs, procs: procs, tr: tr}
	c1 := &opCtx{workers: 1, procs: procs, tr: tr}
	tr.pass = "warmup"
	h.do(cN, 0, h.next, nil, w.op)
	h.do(c1, 1, h.next, nil, w.op)
	h.next++
	start := time.Now()
	for k := 0; k < 2 || time.Since(start) < part(0.15); k++ {
		tr.pass = "speedup-N"
		h.do(cN, k, h.next, nil, w.op)
		tr.pass = "speedup-1"
		h.do(c1, k, h.next, nil, w.op)
		h.next++
	}

	if wm, ok := w.(warmer); ok {
		var cold []float64
		tr.pass = "cold"
		h.loop(&opCtx{workers: procs, procs: procs, tr: tr}, part(0.15), states, nil,
			func(i int, c *opCtx) outcome { return wm.cold(i, c) },
			func(wall time.Duration, _ outcome, _ runtimeobs.Health) { cold = append(cold, ms(wall)) })
		vals["partjoin.warm_vs_cold"] = ratio(median(untraced), median(cold))
	}

	for name, v := range samples {
		if strings.HasPrefix(name, "runtime.") || strings.HasSuffix(name, "_share") {
			vals[name] = mean(v)
		} else {
			vals[name] = median(v)
		}
	}
	ps := tr.analyze("traced")
	sN, s1 := tr.analyze("speedup-N"), tr.analyze("speedup-1")
	for _, layer := range []string{"plan.analyze", "rtree.build", "parnative.join", "partjoin.join"} {
		if v, ok := ps.dur[layer]; ok {
			vals[layer+"_ms"] = median(v)
		} else {
			vals[layer+"_ms"] = tr.setupMedian(layer)
		}
	}
	for _, layer := range []string{"rtree.build", "parnative.join", "partjoin.join"} {
		if n, ok := sN.dur[layer]; ok {
			vals[layer+"_speedup"] = ratio(median(s1.dur[layer]), median(n))
		}
	}
	vals["tiger.generate_ms"] = tr.setupMedian("tiger.generate")
	rep.layers = ps.layers()
	for _, m := range []string{"plan", "rtree", "parnative", "partjoin"} {
		vals[m+".op_share"] = moduleShare(rep.layers, m)
	}
	vals["bench.unattributed_ms"] = median(ps.self["bench.unattributed"])
	vals["bench.unattributed_share"] = moduleShare(rep.layers, "bench")
	vals["bench.trace_overhead_frac"] = ratio(median(ps.walls), median(untraced)) - 1
	vals["bench.check_ms"] = median(h.checkMS)
	return vals
}

// sample turns one traced op's engine results and runtime window into
// per-layer values.
func sample(add func(string, float64), out outcome, hl runtimeobs.Health) {
	ns := func(v int64) float64 { return float64(v) / 1e6 }
	add("runtime.gc_pause_ms", ns(hl.GCPauseNS))
	add("runtime.gc_cycles", float64(hl.GCCycles))
	add("runtime.sched_delay_ms", ns(hl.SchedDelayNS))
	add("runtime.contention_ms", ns(hl.MutexWaitNS))
	if r := out.nat; r != nil {
		add("rtree.build_alloc_mb", float64(out.buildAlloc)/1e6)
		add("rtree.nodes", float64(out.nodes))
		add("parnative.prep_ms", ns(r.PhaseNS[timeline.PhasePrep]))
		add("parnative.tasks_ms", ns(r.PhaseNS[timeline.PhasePartition]))
		add("parnative.sweep_ms", ns(r.PhaseNS[timeline.PhaseSweep]))
		add("parnative.merge_ms", ns(r.PhaseNS[timeline.PhaseMerge]))
		add("parnative.tasks", float64(r.Tasks))
		pairs := make([]float64, len(r.PerWorker))
		total := 0.0
		for k, p := range r.PerWorker {
			pairs[k] = float64(p)
			total += float64(p)
		}
		add("parnative.node_pairs", total)
		add("parnative.steal_hit_ratio", ratio(float64(r.Steals), float64(r.StealAttempts)))
		add("parnative.pair_skew", maxOverMean(pairs))
		add("parnative.busy_skew", busySkew(out.rec))
	}
	if r := out.part; r != nil {
		add("partjoin.prep_ms", ns(r.PhaseNS[timeline.PhasePrep]))
		add("partjoin.sort_ms", ns(r.PhaseNS[timeline.PhaseSort]))
		add("partjoin.merge_ms", ns(r.PhaseNS[timeline.PhaseMerge]))
		if r.PipelineNS != 0 {
			// A pipelined join overlaps scatter, refinement and the
			// sweeps in one phase: these buckets then hold worker busy
			// time summed across workers (refine also the owner's
			// schedule work), not wall time, and are reported as such.
			// Every op of every workload is pipelined, so the buckets'
			// wall-time meaning on other ops is not reported.
			add("partjoin.pipeline_ms", ns(r.PipelineNS))
			add("partjoin.partition_busy_ms", ns(r.PhaseNS[timeline.PhasePartition]))
			add("partjoin.refine_busy_ms", ns(r.PhaseNS[timeline.PhaseRefine]))
			add("partjoin.sweep_busy_ms", ns(r.PhaseNS[timeline.PhaseSweep]))
		}
		cands := float64(len(r.Candidates))
		add("partjoin.comparisons", float64(r.Comparisons))
		add("partjoin.candidates", cands)
		add("partjoin.duplicates", float64(r.Duplicates))
		add("partjoin.units", float64(r.Partitions))
		add("partjoin.refined_tiles", float64(r.RefinedTiles))
		add("partjoin.hit_ratio", ratio(cands, float64(r.Comparisons)))
		add("partjoin.dup_ratio", ratio(float64(r.Duplicates), cands+float64(r.Duplicates)))
		add("partjoin.resort_share", indicator(r.PhaseNS[timeline.PhaseSort] > 0))
		add("partjoin.rescatter_share", indicator(r.PhaseNS[timeline.PhasePartition] > 0))
		add("partjoin.busy_skew", busySkew(out.rec))
	}
}

func indicator(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

// writeTrace dumps the traced run: host, layer table and every span.
func writeTrace(cfg config, rep report, tr *tracer) error {
	data, err := json.Marshal(struct {
		Workload string     `json:"workload"`
		Seed     int64      `json:"seed"`
		Host     hostFacts  `json:"host"`
		Layers   []layerRow `json:"layers"`
		Spans    []span     `json:"spans"`
	}{cfg.workload, cfg.seed, rep.host, rep.layers, tr.spans})
	if err != nil {
		return fmt.Errorf("encode trace: %w", err)
	}
	if err := os.MkdirAll(filepath.Dir(cfg.traceOut), 0o755); err != nil {
		return fmt.Errorf("write trace: %w", err)
	}
	if err := os.WriteFile(cfg.traceOut, data, 0o644); err != nil {
		return fmt.Errorf("write trace: %w", err)
	}
	return nil
}
