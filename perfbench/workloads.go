package main

import (
	"fmt"
	"math/rand"
	"runtime/metrics"

	"spjoin/internal/geom"
	"spjoin/internal/join"
	"spjoin/internal/parnative"
	"spjoin/internal/partjoin"
	"spjoin/internal/plan"
	"spjoin/internal/rtree"
	"spjoin/internal/tiger"
	"spjoin/internal/timeline"
)

// fill is the STR leaf fill factor cmd/spjoin builds its trees with.
const fill = 0.73

// clustered-update switches S between `states` mutated versions along a
// fixed, seeded cycle of `cycle` ops with no state twice in a row. Every
// op then changes the same share of S, and the ops cover many distinct
// state pairs: an op's cost depends on the pair (the re-sort's work), so
// a short cycle lets a few costly pairs set a run's tail. Alternating one
// mutated state with the original made latency bimodal.
const (
	states = 8
	cycle  = 4 * states
)

// workload is one benchmark input and the operation run on it. A
// workload holding warm engine state also implements warmer.
type workload interface {
	// generate builds the inputs from the seed (timed as set-up). A
	// workload that holds warm engine state also primes it here.
	generate(seed int64, scale float64, c *opCtx)
	// reference computes, with the engine the workload does not measure,
	// the expected output of every op; op i must match refs[i%len(refs)].
	reference(c *opCtx) []ref
	// op runs operation i: the measured call sequence into the program.
	op(i int, c *opCtx) outcome
	// rects is |R|+|S| of one op.
	rects() int
	// close releases held engine state.
	close()
}

// warmer is a workload whose ops reuse engine state across calls.
type warmer interface {
	// cold runs a one-shot cold join of op i's input, for comparison.
	cold(i int, c *opCtx) outcome
	// forget drops the warm state of the given worker count after an op
	// panicked in it, so the next op starts cold.
	forget(workers int)
}

// opCtx is what an op needs from the harness. tr is nil and traced false
// on untraced ops, which then record nothing.
type opCtx struct {
	workers int // GOMAXPROCS, or 1 in the single-worker pass
	procs   int // GOMAXPROCS: the planner's worker cap
	tr      *tracer
	traced  bool // attach a timeline recorder and count build allocations
}

// recorder returns a wall-clock timeline for an engine run with the given
// worker count on traced ops, and nil otherwise.
func (c *opCtx) recorder(workers int) *timeline.Recorder {
	if !c.traced {
		return nil
	}
	return timeline.NewWallRecorder(workers)
}

// outcome is what one op produced: its candidates for the check, and the
// engine results the traced run turns into per-layer metrics.
type outcome struct {
	cands      []join.Candidate
	nat        *parnative.Result
	part       *partjoin.Result
	rec        *timeline.Recorder
	buildAlloc uint64 // heap bytes allocated by the two tree builds (traced)
	nodes      int    // pages of both trees (traced)
}

func newWorkload(name string) (workload, error) {
	switch name {
	case "paper-tree":
		return &paperMaps{planned: false}, nil
	case "paper-auto":
		return &paperMaps{planned: true}, nil
	case "clustered-update":
		return &clustered{}, nil
	}
	return nil, fmt.Errorf("unknown workload %q (paper-tree | paper-auto | clustered-update)", name)
}

// paperMaps is the paper's TIGER-like map pair. paper-tree runs the
// paper's algorithm (STR-built R*-trees, parallel tree join); paper-auto
// runs the planner and then the engine it picks, which on these maps is
// the partition engine, so no tree is built.
type paperMaps struct {
	planned bool
	r, s    []rtree.Item
}

func (w *paperMaps) generate(seed int64, scale float64, c *opCtx) {
	c.tr.begin("tiger.generate")
	w.r, w.s = tiger.Maps(scale, seed)
	c.tr.end()
}

func (w *paperMaps) reference(c *opCtx) []ref {
	if w.planned {
		return []ref{refOf(treeJoin(w.r, w.s, c).cands)}
	}
	d := plan.Decide(plan.Analyze(w.r, w.s), c.procs)
	return []ref{refOf(partJoin(nil, w.r, w.s, d, c).cands)}
}

func (w *paperMaps) op(_ int, c *opCtx) outcome {
	if !w.planned {
		return treeJoin(w.r, w.s, c)
	}
	c.tr.begin("plan.analyze")
	st := plan.Analyze(w.r, w.s)
	c.tr.end()
	c.tr.begin("plan.decide")
	d := plan.Decide(st, c.procs)
	c.tr.end()
	if d.Engine == plan.EngineTree {
		return treeJoin(w.r, w.s, c)
	}
	d.Workers = min(d.Workers, c.workers)
	return partJoin(nil, w.r, w.s, d, c)
}

func (w *paperMaps) rects() int { return len(w.r) + len(w.s) }
func (w *paperMaps) close()     {}

// clustered is the writes-beside-reads case: both sides piled into the
// same gaussian hotspots (cmd/spjoin's gauss distribution), and a held
// Joiner re-joining R with the next of a cycle of S states, each S with
// 1% of its rects moved.
type clustered struct {
	r      []rtree.Item
	states [][]rtree.Item
	seq    []int // op i joins with states[seq[i%cycle]]
	d      plan.Decision
	// joiners holds one warm Joiner per worker count, each fed the states
	// in op order, so the single-worker pass sees the same changes.
	joiners map[int]*partjoin.Joiner
}

func (w *clustered) generate(seed int64, scale float64, c *opCtx) {
	n := max(int(120000*scale), 1000)
	c.tr.begin("tiger.generate")
	w.r = tiger.GaussianClusters(n, 4, 2, 0.05, 41, seed)
	base := tiger.GaussianClusters(n, 4, 2, 0.05, 41, seed+1)
	w.states = make([][]rtree.Item, states)
	for k := range w.states {
		w.states[k] = mutate(base, seed, k)
	}
	w.seq = sequence(seed)
	c.tr.end()
	c.tr.begin("plan.analyze")
	st := plan.Analyze(w.r, base)
	c.tr.end()
	c.tr.begin("plan.decide")
	w.d = plan.Decide(st, c.procs)
	c.tr.end()
	w.close()
	w.joiners = map[int]*partjoin.Joiner{}
	// The priming cold join: the cycle's last state, so op 0 is a warm
	// switch.
	w.op(cycle-1, c)
}

func (w *clustered) reference(c *opCtx) []ref {
	byState := make([]ref, len(w.states))
	rt := rtree.BulkLoadSTRParallel(rtree.DefaultParams(), w.r, fill, c.workers)
	for k, s := range w.states {
		st := rtree.BulkLoadSTRParallel(rtree.DefaultParams(), s, fill, c.workers)
		byState[k] = refOf(parnative.Join(rt, st, parnative.Config{Workers: c.workers, Sorted: true}).Candidates)
	}
	refs := make([]ref, cycle)
	for i, k := range w.seq {
		refs[i] = byState[k]
	}
	return refs
}

func (w *clustered) op(i int, c *opCtx) outcome {
	j := w.joiners[c.workers]
	if j == nil {
		j = new(partjoin.Joiner)
		w.joiners[c.workers] = j
	}
	d := w.d
	d.Workers = min(d.Workers, c.workers)
	return partJoin(j, w.r, w.states[w.seq[i%cycle]], d, c)
}

func (w *clustered) cold(i int, c *opCtx) outcome {
	return partJoin(nil, w.r, w.states[w.seq[i%cycle]], w.d, c)
}

func (w *clustered) rects() int { return len(w.r) + len(w.states[0]) }

func (w *clustered) close() {
	for _, j := range w.joiners {
		j.Close()
	}
}

// forget drops the Joiner an op panicked in without closing it: a pool
// interrupted mid-phase cannot be closed safely.
func (w *clustered) forget(workers int) { delete(w.joiners, workers) }

// sequence is the seeded cycle of state indices: permutations of the
// states laid end to end, none starting with the state the previous one
// ended with, and the cycle's ends differing too.
func sequence(seed int64) []int {
	rng := rand.New(rand.NewSource(seed ^ 0x73657173)) // "seqs"
	seq := make([]int, 0, cycle)
	for len(seq) < cycle {
		p := rng.Perm(states)
		if len(seq) > 0 && p[0] == seq[len(seq)-1] {
			continue
		}
		if len(seq)+states == cycle && p[states-1] == seq[0] {
			continue
		}
		seq = append(seq, p...)
	}
	return seq
}

// mutate returns a copy of base with 1% of its rects moved, chosen by
// (seed, k): half jittered by at most a fifth of the largest rect side,
// which keeps them in their tile, and half jumped 10-20 world units along
// x, a few tile widths at the grid the planner picks for this data. Every
// state keeps the data MBR of base, so the grid geometry of every state is
// the same and ops differ only by the moves: no rect on the MBR's edge is
// moved, and a move that would leave the MBR goes the other way.
func mutate(base []rtree.Item, seed int64, k int) []rtree.Item {
	out := append([]rtree.Item(nil), base...)
	mbr := geom.EmptyRect()
	for _, it := range base {
		mbr = mbr.Union(it.Rect)
	}
	rng := rand.New(rand.NewSource(seed*1000003 + int64(k)))
	m := max(len(base)/100, 2)
	moved := 0
	for _, i := range rng.Perm(len(base)) {
		if moved == m {
			break
		}
		r := out[i].Rect
		if r.MinX == mbr.MinX || r.MinY == mbr.MinY || r.MaxX == mbr.MaxX || r.MaxY == mbr.MaxY {
			continue
		}
		var dx, dy float64
		if moved < m/2 {
			dx = (2*rng.Float64() - 1) * 0.01
			dy = (2*rng.Float64() - 1) * 0.01
		} else {
			dx = 10 + 10*rng.Float64()
			if rng.Intn(2) == 0 {
				dx = -dx
			}
		}
		if r.MinX+dx < mbr.MinX || r.MaxX+dx > mbr.MaxX {
			dx = -dx
		}
		if r.MinY+dy < mbr.MinY || r.MaxY+dy > mbr.MaxY {
			dy = -dy
		}
		out[i].Rect = geom.Rect{MinX: r.MinX + dx, MinY: r.MinY + dy, MaxX: r.MaxX + dx, MaxY: r.MaxY + dy}
		moved++
	}
	return out
}

// treeJoin is the tree engine's whole path: STR-build both trees, then
// the parallel tree join.
func treeJoin(r, s []rtree.Item, c *opCtx) outcome {
	var out outcome
	var a0 uint64
	if c.traced {
		a0 = heapAllocs()
	}
	c.tr.begin("rtree.build")
	rt := rtree.BulkLoadSTRParallel(rtree.DefaultParams(), r, fill, c.workers)
	c.tr.end()
	c.tr.begin("rtree.build")
	st := rtree.BulkLoadSTRParallel(rtree.DefaultParams(), s, fill, c.workers)
	c.tr.end()
	if c.traced {
		out.buildAlloc = heapAllocs() - a0
		rd, rp := rt.NumPages()
		sd, sp := st.NumPages()
		out.nodes = rd + rp + sd + sp
	}
	out.rec = c.recorder(c.workers)
	c.tr.begin("parnative.join")
	res := parnative.Join(rt, st, parnative.Config{Workers: c.workers, Sorted: true, Timeline: out.rec})
	c.tr.end()
	out.cands, out.nat = res.Candidates, &res
	return out
}

// partJoin runs the partition engine with a plan's knobs: one-shot when j
// is nil, otherwise on the held Joiner.
func partJoin(j *partjoin.Joiner, r, s []rtree.Item, d plan.Decision, c *opCtx) outcome {
	rec := c.recorder(d.Workers)
	cfg := partjoin.Config{
		Workers: d.Workers, Grid: d.Grid, RefineThreshold: d.RefineThreshold,
		Sorted: true, Timeline: rec,
	}
	c.tr.begin("partjoin.join")
	var res partjoin.Result
	if j == nil {
		res = partjoin.Join(r, s, cfg)
	} else {
		res = j.Join(r, s, cfg)
	}
	c.tr.end()
	return outcome{cands: res.Candidates, part: &res, rec: rec}
}

// heapAllocs reads the runtime's cumulative heap allocation counter.
func heapAllocs() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}
