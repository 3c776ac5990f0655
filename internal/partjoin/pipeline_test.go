package partjoin

import (
	"cmp"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"spjoin/internal/geom"
	"spjoin/internal/rtree"
)

// bruteSorted is the sequence oracle: every intersecting (R item, S item)
// pair, sorted by (R, S) id — the order a Sorted join returns.
func bruteSorted(r, s []rtree.Item) []pairKey {
	var out []pairKey
	for i := range r {
		a := &r[i]
		for k := range s {
			if a.Rect.Intersects(s[k].Rect) {
				out = append(out, pairKey{a.ID, s[k].ID})
			}
		}
	}
	slices.SortFunc(out, func(x, y pairKey) int {
		if x.r != y.r {
			return cmp.Compare(x.r, y.r)
		}
		return cmp.Compare(x.s, y.s)
	})
	return out
}

// checkPairSeq fails unless a Sorted join returned exactly want, in order.
func checkPairSeq(tb testing.TB, label string, res Result, want []pairKey) {
	tb.Helper()
	if len(res.Candidates) != len(want) {
		tb.Fatalf("%s: %d pairs, want %d", label, len(res.Candidates), len(want))
	}
	for i, c := range res.Candidates {
		if got := (pairKey{c.R, c.S}); got != want[i] {
			tb.Fatalf("%s: pair %d is %v, want %v", label, i, got, want[i])
		}
	}
}

// buildCounters are the Result counters that depend only on the build:
// the schedule, its refinement and what the sweeps over it compared.
type buildCounters struct {
	Partitions, Duplicates, Comparisons, RefinedTiles, Subtiles int
}

func countersOf(res Result) buildCounters {
	return buildCounters{res.Partitions, res.Duplicates, res.Comparisons, res.RefinedTiles, res.Subtiles}
}

// checkBuild is the pipelined build's oracle. It joins r and s on j under
// cfg with Sorted forced and checks the exact pair sequence against want
// and, when the join built, the cache white-box (checkSegments). It then
// re-joins: the clean re-join must skip the pipeline, sweep the cached
// schedule (joinTiles) and return the same sequence and build counters.
// It returns those counters.
func checkBuild(tb testing.TB, label string, j *Joiner, r, s []rtree.Item, cfg Config, want []pairKey) buildCounters {
	tb.Helper()
	cfg.Sorted = true
	res := j.Join(r, s, cfg)
	checkPairSeq(tb, label, res, want)
	if res.PipelineNS > 0 {
		checkSegments(tb, label, j)
	}
	built := countersOf(res)
	again := j.Join(r, s, cfg)
	if again.PipelineNS != 0 {
		tb.Fatalf("%s: clean re-join ran the pipeline (%dns)", label, again.PipelineNS)
	}
	checkPairSeq(tb, label+" clean re-join", again, want)
	if got := countersOf(again); got != built {
		tb.Fatalf("%s: clean re-join counters %+v, build %+v", label, got, built)
	}
	return built
}

// checkSegments verifies a Joiner's cached build white-box, side by side:
// the sweep order is a permutation (sorted, when the side has no NaN key);
// every root tile's idx segment holds exactly the rects whose tile range
// covers the tile, in sweep order; every refinement node's arena segment
// holds exactly the rects of its parent segment that its creating split
// assigns to its subcell, in parent order; and both plane copies hold
// rects[idx[p]] at every position p.
func checkSegments(tb testing.TB, label string, j *Joiner) {
	tb.Helper()
	tiles := j.gx * j.gy
	sides := [2]struct {
		name   string
		part   *gridSide
		rects  []geom.Rect
		ord    []int32
		arena  []int32
		planes *geom.Planes
	}{
		{"R", &j.rPart, j.rRects, j.rOrd, j.refRIdx, &j.refRPlanes},
		{"S", &j.sPart, j.sRects, j.sOrd, j.refSIdx, &j.refSPlanes},
	}
	for si, sd := range sides {
		where := label + " " + sd.name
		seen := make([]bool, len(sd.rects))
		hasNaN := false
		for _, i := range sd.ord {
			if seen[i] {
				tb.Fatalf("%s: sweep order repeats rect %d", where, i)
			}
			seen[i] = true
			rc := &sd.rects[i]
			hasNaN = hasNaN || math.IsNaN(rc.MinX) || math.IsNaN(rc.MinY)
		}
		if len(sd.ord) != len(sd.rects) {
			tb.Fatalf("%s: sweep order has %d entries for %d rects", where, len(sd.ord), len(sd.rects))
		}
		if !hasNaN {
			for p := 1; p < len(sd.ord); p++ {
				a, b := &sd.rects[sd.ord[p-1]], &sd.rects[sd.ord[p]]
				if b.MinX < a.MinX || (b.MinX == a.MinX &&
					(b.MinY < a.MinY || (b.MinY == a.MinY && sd.ord[p] < sd.ord[p-1]))) {
					tb.Fatalf("%s: sweep order broken at position %d", where, p)
				}
			}
		}

		want := make([][]int32, tiles)
		for _, i := range sd.ord {
			rc := &sd.rects[i]
			x0, y0 := j.tileOf(rc.MinX, rc.MinY)
			x1, y1 := j.tileOf(rc.MaxX, rc.MaxY)
			for ty := y0; ty <= y1; ty++ {
				for tx := x0; tx <= x1; tx++ {
					want[ty*j.gx+tx] = append(want[ty*j.gx+tx], i)
				}
			}
		}
		part := sd.part
		if len(part.starts) != tiles+1 || int(part.starts[tiles]) != len(part.idx) {
			tb.Fatalf("%s: %d segment bounds ending at %d for %d tiles and %d entries",
				where, len(part.starts), part.starts[len(part.starts)-1], tiles, len(part.idx))
		}
		for t := 0; t < tiles; t++ {
			if seg := part.idx[part.starts[t]:part.starts[t+1]]; !slices.Equal(seg, want[t]) {
				tb.Fatalf("%s: tile %d segment %v, want %v", where, t, seg, want[t])
			}
		}
		if part.planes.Len() != len(part.idx) {
			tb.Fatalf("%s: %d segment plane rows for %d entries", where, part.planes.Len(), len(part.idx))
		}
		checkPlanes(tb, where+" segment", &part.planes, part.idx, sd.rects)

		for n := range j.refNodes {
			nd := &j.refNodes[n]
			var parent []int32
			if nd.parent < 0 {
				parent = part.idx[part.starts[nd.tile]:part.starts[nd.tile+1]]
			} else {
				lo, hi := nodeRange(&j.refNodes[nd.parent], si)
				parent = sd.arena[lo:hi]
			}
			cell := refCell{orgX: nd.orgX, orgY: nd.orgY, invW: nd.invW, invH: nd.invH, kx: nd.kx, ky: nd.ky}
			var wantSeg []int32
			for _, i := range parent {
				x0, y0, x1, y1 := cellRange(&sd.rects[i], cell)
				if x0 <= nd.sx && nd.sx <= x1 && y0 <= nd.sy && nd.sy <= y1 {
					wantSeg = append(wantSeg, i)
				}
			}
			lo, hi := nodeRange(nd, si)
			if seg := sd.arena[lo:hi]; !slices.Equal(seg, wantSeg) {
				tb.Fatalf("%s: refinement node %d segment %v, want %v", where, n, seg, wantSeg)
			}
		}
		// A build that refines nothing leaves the arena planes untouched,
		// so only the live arena prefix is compared.
		if sd.planes.Len() < len(sd.arena) {
			tb.Fatalf("%s: %d arena plane rows for %d entries", where, sd.planes.Len(), len(sd.arena))
		}
		checkPlanes(tb, where+" arena", sd.planes, sd.arena, sd.rects)
	}
}

// nodeRange returns a refinement node's arena range on side si (0 = R).
func nodeRange(nd *refNode, si int) (int32, int32) {
	if si == 0 {
		return nd.rLo, nd.rHi
	}
	return nd.sLo, nd.sHi
}

// checkPlanes fails unless planes position p holds rects[idx[p]] bit for
// bit (so NaN coordinates compare equal to themselves).
func checkPlanes(tb testing.TB, where string, planes *geom.Planes, idx []int32, rects []geom.Rect) {
	tb.Helper()
	for p, i := range idx {
		if got := planes.RectAt(p); rectChanged(&got, &rects[i]) {
			tb.Fatalf("%s: planes[%d] = %v, want rect %d = %v", where, p, got, i, rects[i])
		}
	}
}

// TestPipelinedBuild drives repeated builds through the pipelined engine
// across grid sizes and worker counts. Each round mutates the inputs so
// the rebuild exercises the per-side repair sort (one side's order
// broken), full disorder (both sides) and a cross-tile growth with the
// order intact, with clean re-joins in between; checkBuild pins every
// build. Grids 1 and 5 run an explicit refine threshold that splits their
// tiles: the schedule then does not depend on the worker count, so every
// count's build counters must equal the single-worker build's. The auto
// threshold (and, at grid 0, the auto grid) depend on it. Run under -race
// this is the pipeline's concurrency stress: the per-tile readiness
// frontiers, the claim table and the refinement hand-off all operate with
// real worker parallelism.
func TestPipelinedBuild(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	workerCounts := []int{1, 2, 3, 4, 8} // the first is the reference
	for _, c := range []struct {
		grid int
		thr  int64
	}{{0, 0}, {1, 1024}, {5, 1024}, {23, 0}} {
		grid := c.grid
		r := items(randomRects(rng, 900, 200, 12), 0)
		s := items(randomRects(rng, 900, 200, 12), 10000)
		joiners := make([]Joiner, len(workerCounts))

		build := func(stage string) {
			t.Helper()
			want := bruteSorted(r, s)
			var ref buildCounters
			for i, workers := range workerCounts {
				label := fmt.Sprintf("w=%d g=%d thr=%d %s", workers, grid, c.thr, stage)
				cfg := Config{Workers: workers, Grid: grid, RefineThreshold: c.thr}
				got := checkBuild(t, label, &joiners[i], r, s, cfg, want)
				if c.thr != 0 && got.RefinedTiles == 0 {
					t.Fatalf("%s: explicit threshold refined nothing", label)
				}
				switch {
				case i == 0:
					ref = got
				case c.thr != 0 && got != ref:
					t.Fatalf("%s: counters %+v, 1-worker %+v", label, got, ref)
				}
			}
		}

		build("cold")
		build("clean-rejoin")
		// Break one side's order: only R re-sorts and recounts.
		r[len(r)/3].Rect.MinX -= 150
		build("r-order-broken")
		// Break both sides at once.
		r[len(r)/2].Rect.MinX -= 75
		s[len(s)/4].Rect.MinX -= 125
		build("both-broken")
		// In-place growth (cross-tile): segments rebuilt, order intact.
		s[len(s)/2].Rect.MaxX += 90
		s[len(s)/2].Rect.MaxY += 90
		build("s-grown")
		for i := range joiners {
			joiners[i].Close()
		}
	}
}

// TestPipelinedRefinementStress forces deep refinement through the
// pipelined build on a clustered workload and checks refinement composes
// with the pipeline: subtiles appear, the build passes checkBuild
// with counters equal to a single-worker build's, and the clean re-join
// reuses the reconstructed schedule allocation-free.
func TestPipelinedRefinementStress(t *testing.T) {
	rng := rand.New(rand.NewSource(73))
	// A dense cluster in one corner plus background noise.
	var rects []geom.Rect
	for i := 0; i < 1200; i++ {
		x := rng.Float64() * 10
		y := rng.Float64() * 10
		rects = append(rects, geom.NewRect(x, y, x+0.5, y+0.5))
	}
	for i := 0; i < 300; i++ {
		x := rng.Float64() * 200
		y := rng.Float64() * 200
		rects = append(rects, geom.NewRect(x, y, x+2, y+2))
	}
	r := items(rects[:700], 0)
	s := items(rects[700:], 10000)
	want := bruteSorted(r, s)

	var ref buildCounters
	for _, workers := range []int{1, 3} {
		cfg := Config{Workers: workers, Grid: 8, Sorted: true, RefineThreshold: 64}
		var jp Joiner
		got := checkBuild(t, fmt.Sprintf("w=%d", workers), &jp, r, s, cfg, want)
		if got.Subtiles == 0 {
			t.Fatalf("w=%d: clustered workload did not refine under the pipeline", workers)
		}
		if workers == 1 {
			ref = got
		} else if got != ref {
			t.Fatalf("w=%d: counters %+v, 1-worker %+v", workers, got, ref)
		}
		// The reconstructed schedule must serve the clean re-join with
		// zero allocations.
		if avg := testing.AllocsPerRun(10, func() {
			jp.Join(r, s, cfg)
		}); avg != 0 {
			t.Errorf("w=%d: steady state after pipelined build allocates %.1f/run, want 0",
				workers, avg)
		}
		jp.Close()
	}
}
