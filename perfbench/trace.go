package main

import (
	"sort"
	"strings"
	"time"

	"spjoin/internal/timeline"
)

// span is one timed call into a layer, recorded by the benchmark around
// the program's public functions (the program itself is not instrumented).
type span struct {
	Name   string  `json:"name"`
	Pass   string  `json:"pass"`   // setup, traced, warmup, speedup-N, speedup-1, cold
	Op     int     `json:"op"`     // op index within the pass (set-up: repetition)
	Parent int     `json:"parent"` // index of the enclosing span, -1 for a root
	Start  float64 `json:"start_ms"`
	End    float64 `json:"end_ms"`
}

// tracer keeps every span in memory; the traced run writes them out when
// it ends. A nil *tracer records nothing, which is how untraced ops run.
type tracer struct {
	epoch time.Time
	spans []span
	open  []int
	pass  string
	op    int
}

func newTracer() *tracer {
	return &tracer{epoch: time.Now(), spans: make([]span, 0, 1<<14)}
}

func (t *tracer) now() float64 {
	return float64(time.Since(t.epoch).Nanoseconds()) / 1e6
}

// begin opens a span nested in the innermost open one.
func (t *tracer) begin(name string) {
	if t == nil {
		return
	}
	parent := -1
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	t.spans = append(t.spans, span{Name: name, Pass: t.pass, Op: t.op, Parent: parent, Start: t.now()})
	t.open = append(t.open, len(t.spans)-1)
}

// end closes the innermost open span.
func (t *tracer) end() {
	if t == nil {
		return
	}
	n := len(t.open) - 1
	t.spans[t.open[n]].End = t.now()
	t.open = t.open[:n]
}

// depth is the number of open spans.
func (t *tracer) depth() int {
	if t == nil {
		return 0
	}
	return len(t.open)
}

// endTo closes open spans, innermost first, until depth are left.
func (t *tracer) endTo(depth int) {
	for t.depth() > depth {
		t.end()
	}
}

// layerRow is one layer's self time over the ops of a pass.
type layerRow struct {
	Name   string  `json:"name"`
	SelfMS float64 `json:"self_ms_p50"` // median per op of the layer's summed self time
	Share  float64 `json:"share"`       // summed self time ÷ summed op wall
}

// passStats is the span analysis of one pass, whose ops each have one
// root "op" span and carry their index in the pass: per op, the root's
// wall and each layer's summed duration and self time. A layer's self
// time is its duration minus its child spans; the root's self time is the
// op wall no layer span covers (bench.unattributed).
type passStats struct {
	walls []float64
	dur   map[string][]float64
	self  map[string][]float64
}

func (t *tracer) analyze(pass string) passStats {
	ps := passStats{dur: map[string][]float64{}, self: map[string][]float64{}}
	childSum := make([]float64, len(t.spans))
	for _, s := range t.spans {
		if s.Pass != pass {
			continue
		}
		if s.Parent >= 0 {
			childSum[s.Parent] += s.End - s.Start
		} else {
			ps.walls = append(ps.walls, s.End-s.Start)
		}
	}
	for i, s := range t.spans {
		if s.Pass != pass {
			continue
		}
		name := s.Name
		if s.Parent < 0 {
			name = "bench.unattributed"
		}
		if ps.dur[name] == nil {
			ps.dur[name] = make([]float64, len(ps.walls))
			ps.self[name] = make([]float64, len(ps.walls))
		}
		ps.dur[name][s.Op] += s.End - s.Start
		ps.self[name][s.Op] += s.End - s.Start - childSum[i]
	}
	return ps
}

// layers is the self-time table of a pass, largest share first.
func (ps passStats) layers() []layerRow {
	total := 0.0
	for _, w := range ps.walls {
		total += w
	}
	var rows []layerRow
	for name, v := range ps.self {
		sum := 0.0
		for _, x := range v {
			sum += x
		}
		rows = append(rows, layerRow{Name: name, SelfMS: median(v), Share: ratio(sum, total)})
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].Share > rows[j].Share })
	return rows
}

// moduleShare sums the shares of the layers of one module ("rtree", ...).
func moduleShare(rows []layerRow, module string) float64 {
	s := 0.0
	for _, r := range rows {
		if strings.HasPrefix(r.Name, module+".") {
			s += r.Share
		}
	}
	return s
}

// setupMedian is the median duration of a named span over the set-up
// repetitions, for layers that run only in set-up.
func (t *tracer) setupMedian(name string) float64 {
	var v []float64
	for _, s := range t.spans {
		if s.Pass == "setup" && s.Name == name {
			v = append(v, s.End-s.Start)
		}
	}
	return median(v)
}

// busySkew is max ÷ mean per-worker busy time of one engine run: on each
// worker track, the union of its spans minus the queue-idle spans nested
// in them (the tree executor's idle waits inside its sweep phase). The
// paper's load-balance measure is per-processor time, not pair counts.
func busySkew(rec *timeline.Recorder) float64 {
	if rec == nil {
		return 0
	}
	procs := rec.Procs()
	busy := make([]float64, len(procs))
	for i, tr := range procs {
		var work, idle [][2]float64
		for _, s := range tr.Spans {
			iv := [2]float64{float64(s.Start), float64(s.End)}
			if s.Kind == timeline.KindQueueIdle {
				idle = append(idle, iv)
			} else {
				work = append(work, iv)
			}
		}
		busy[i] = unionLen(work) - unionLen(idle)
	}
	return maxOverMean(busy)
}

// unionLen is the total length covered by a set of intervals.
func unionLen(iv [][2]float64) float64 {
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	total, end := 0.0, 0.0
	for k, v := range iv {
		if k == 0 || v[0] > end {
			total += v[1] - v[0]
			end = v[1]
		} else if v[1] > end {
			total += v[1] - end
			end = v[1]
		}
	}
	return total
}
