package partjoin

import (
	"fmt"
	"math"
	"testing"

	"spjoin/internal/geom"
	"spjoin/internal/rtree"
)

// fuzzJoinInput decodes a fuzz payload into two rect sets plus a grid shape
// and worker count. Layout: [nr, grid, workers, sorted, rect bytes...] with
// four bytes per rect (x, y, w, h on a small integer lattice, so touching
// edges and exact tile-boundary hits are common).
func fuzzJoinInput(data []byte) (r, s []rtree.Item, cfg Config) {
	if len(data) < 4 {
		return nil, nil, Config{Workers: 1}
	}
	nr := int(data[0]) % 24
	cfg.Grid = int(data[1]) % 24
	cfg.Workers = 1 + int(data[2])%4
	cfg.Sorted = data[3]&1 != 0
	data = data[4:]

	var rects []geom.Rect
	for len(data) >= 4 {
		x := float64(data[0] % 32)
		y := float64(data[1] % 32)
		w := float64(data[2] % 8)
		h := float64(data[3] % 8)
		data = data[4:]
		rects = append(rects, geom.NewRect(x, y, x+w, y+h))
	}
	if nr > len(rects) {
		nr = len(rects)
	}
	return items(rects[:nr], 0), items(rects[nr:], 10000), cfg
}

// FuzzPartitionJoin checks the partition engine against the brute-force
// oracle on arbitrary rect sets, grid shapes, and worker counts: the
// candidate set must be exactly the intersecting pairs, with no pair
// reported twice (toSet fails on duplicates). Each input also drives the
// Joiner's two states: an identical re-join (whole-cache reuse), then a
// mutation derived from the payload and a third join, which must rebuild
// and track the mutated inputs.
func FuzzPartitionJoin(f *testing.F) {
	f.Add([]byte{2, 4, 1, 0, 0, 0, 4, 4, 1, 1, 4, 4, 3, 3, 2, 2, 8, 8, 1, 1})
	f.Add([]byte{0, 0, 0, 0})
	f.Add([]byte{7, 1, 3, 1, 5, 5, 0, 0, 5, 5, 0, 0, 5, 5, 0, 0})
	f.Add([]byte{3, 23, 2, 1, 0, 0, 7, 7, 8, 8, 7, 7, 16, 16, 7, 7, 24, 24, 7, 7})
	f.Fuzz(func(t *testing.T, data []byte) {
		r, s, cfg := fuzzJoinInput(data)
		var j Joiner
		defer j.Close()
		check := func(stage string) {
			t.Helper()
			got := toSet(t, j.Join(r, s, cfg).Candidates)
			want := bruteSet(r, s)
			if len(got) != len(want) {
				t.Fatalf("cfg %+v %s: %d pairs, want %d", cfg, stage, len(got), len(want))
			}
			for k := range want {
				if !got[k] {
					t.Fatalf("cfg %+v %s: missing pair %v", cfg, stage, k)
				}
			}
		}
		check("cold")
		check("rejoin")
		if len(r) > 0 && len(data) >= 4 {
			i := int(data[2]) % len(r)
			switch data[3] % 3 {
			case 0: // grow within the world — may stay in-tile or cross
				r[i].Rect.MaxX += float64(data[0] % 8)
				r[i].Rect.MaxY += float64(data[1] % 8)
			case 1: // move left — typically breaks the sweep order
				r[i].Rect.MinX = -float64(data[0] % 16)
			case 2: // change identity only
				r[i].ID += 777
			}
			check("mutated")
		}
	})
}

// FuzzPartitionJoinPipelined pins the pipelined build with checkBuild —
// the exact sorted pair sequence against brute force, the white-box
// segment check, and the clean re-join's counters — over the same
// degenerate inputs (NaN, empty, duplicate stacks) and refinement
// thresholds the refined fuzz covers: the pipeline's per-tile readiness, fused
// scatter+fill and in-phase refinement hand-off must be invisible in the
// results. Under an explicit threshold (the grid is then explicit too:
// both come from byte 1) the build counters must also equal a
// single-worker build's. The mutation stages drive the Joiner back
// through the pipelined rebuild (a broken sweep order lands in the
// per-side repair sort).
func FuzzPartitionJoinPipelined(f *testing.F) {
	f.Add([]byte{2, 1, 1, 0, 0, 0, 4, 4, 1, 1, 4, 4, 3, 3, 2, 2, 8, 8, 1, 1})
	f.Add([]byte{0, 0, 0, 0})
	// All-in-one-tile stack: identical rects, grid 1, threshold 1.
	f.Add([]byte{7, 1, 3, 1, 5, 5, 0, 0, 5, 5, 0, 0, 5, 5, 0, 0, 5, 5, 0, 0})
	// NaN + empty + duplicate injections (0xF0/0xF1/0xF2 markers) — NaN
	// MinX breaks the scatter's column monotonicity, forcing the
	// whole-scatter readiness fallback.
	f.Add([]byte{9, 1, 2, 1, 0xF0, 0xF1, 0xF2, 3, 1, 1, 4, 4, 2, 2, 8, 8, 6, 6, 1, 1, 9, 9, 2, 2})
	// Boundary lattice: rects touching at multiples of 8.
	f.Add([]byte{6, 2, 2, 1, 0, 0, 8, 8, 8, 8, 8, 8, 16, 16, 8, 8, 0, 8, 8, 8, 8, 0, 8, 8})
	f.Fuzz(func(t *testing.T, data []byte) {
		r, s, cfg := fuzzRefinedInput(data)
		explicit := cfg.RefineThreshold != 0 && cfg.Grid != 0
		one := cfg
		one.Workers = 1
		var jp, j1 Joiner
		defer jp.Close()
		defer j1.Close()
		check := func(stage string) {
			t.Helper()
			want := bruteSorted(r, s)
			label := fmt.Sprintf("cfg %+v %s", cfg, stage)
			got := checkBuild(t, label, &jp, r, s, cfg, want)
			if explicit {
				if ref := checkBuild(t, label+" 1-worker", &j1, r, s, one, want); got != ref {
					t.Fatalf("%s: counters %+v, 1-worker %+v", label, got, ref)
				}
			}
		}
		check("cold")
		check("rejoin")
		if len(r) > 0 && len(data) >= 4 {
			i := int(data[2]) % len(r)
			switch data[3] % 3 {
			case 0: // grow within the world — may stay in-tile or cross
				r[i].Rect.MaxX += float64(data[0] % 8)
				r[i].Rect.MaxY += float64(data[1] % 8)
			case 1: // move left — typically breaks the sweep order
				r[i].Rect.MinX = -float64(data[0] % 16)
			case 2: // change identity only
				r[i].ID += 777
			}
			check("mutated")
		}
	})
}

// fuzzRefinedInput decodes the refined-fuzz payload: the base layout of
// fuzzJoinInput plus a refinement threshold selector and special-rect
// injection. Byte 1 (grid) doubles as the threshold source so tiny
// explicit thresholds (forcing deep refinement on small inputs) and auto
// mode both occur; rect bytes with a 0xF? x-coordinate are replaced by
// NaN/EmptyRect/duplicate shapes.
func fuzzRefinedInput(data []byte) (r, s []rtree.Item, cfg Config) {
	r, s, cfg = fuzzJoinInput(data)
	if len(data) < 4 {
		return r, s, cfg
	}
	switch data[1] % 4 {
	case 0:
		cfg.RefineThreshold = 0 // auto
	case 1:
		cfg.RefineThreshold = 1 // refine everything splittable
	case 2:
		cfg.RefineThreshold = 16
	case 3:
		cfg.RefineThreshold = 256
	}
	// Degenerate injections driven by the raw payload: NaN rects, empty
	// rects, and exact duplicates of rect 0 (duplicate-heavy stacks).
	nan := math.NaN()
	for i := range r {
		switch data[(i+1)%len(data)] {
		case 0xF0:
			r[i].Rect = geom.Rect{MinX: nan, MinY: nan, MaxX: nan, MaxY: nan}
		case 0xF1:
			r[i].Rect = geom.EmptyRect()
		case 0xF2:
			if len(r) > 0 {
				r[i].Rect = r[0].Rect
			}
		}
	}
	return r, s, cfg
}

// FuzzPartitionJoinRefined pins the refined engine to the brute-force
// oracle AND to the unrefined engine's exact sorted pair sequence, across
// skewed/degenerate/duplicate-heavy inputs, through the Joiner's clean
// re-join and its rebuild after mutations. Sorted mode is forced so the two engines' outputs are
// comparable element by element.
func FuzzPartitionJoinRefined(f *testing.F) {
	f.Add([]byte{2, 1, 1, 0, 0, 0, 4, 4, 1, 1, 4, 4, 3, 3, 2, 2, 8, 8, 1, 1})
	f.Add([]byte{0, 0, 0, 0})
	// All-in-one-tile stack: identical rects, grid 1, threshold 1.
	f.Add([]byte{7, 1, 3, 1, 5, 5, 0, 0, 5, 5, 0, 0, 5, 5, 0, 0, 5, 5, 0, 0})
	// NaN + empty + duplicate injections (0xF0/0xF1/0xF2 markers).
	f.Add([]byte{9, 1, 2, 1, 0xF0, 0xF1, 0xF2, 3, 1, 1, 4, 4, 2, 2, 8, 8, 6, 6, 1, 1, 9, 9, 2, 2})
	// Boundary lattice: rects touching at multiples of 8.
	f.Add([]byte{6, 2, 2, 1, 0, 0, 8, 8, 8, 8, 8, 8, 16, 16, 8, 8, 0, 8, 8, 8, 8, 0, 8, 8})
	f.Fuzz(func(t *testing.T, data []byte) {
		r, s, cfg := fuzzRefinedInput(data)
		cfg.Sorted = true
		base := cfg
		base.RefineThreshold = RefineDisabled
		var jr, ju Joiner
		defer jr.Close()
		defer ju.Close()
		check := func(stage string) {
			t.Helper()
			res := jr.Join(r, s, cfg)
			got := toSet(t, res.Candidates)
			want := bruteSet(r, s)
			if len(got) != len(want) {
				t.Fatalf("cfg %+v %s: %d pairs, want %d", cfg, stage, len(got), len(want))
			}
			for k := range want {
				if !got[k] {
					t.Fatalf("cfg %+v %s: missing pair %v", cfg, stage, k)
				}
			}
			// Exact pair-sequence equality against the unrefined engine.
			ref := ju.Join(r, s, base)
			if len(ref.Candidates) != len(res.Candidates) {
				t.Fatalf("cfg %+v %s: refined %d pairs, unrefined %d",
					cfg, stage, len(res.Candidates), len(ref.Candidates))
			}
			for i := range ref.Candidates {
				if ref.Candidates[i].R != res.Candidates[i].R ||
					ref.Candidates[i].S != res.Candidates[i].S {
					t.Fatalf("cfg %+v %s: pair %d differs: refined (%d,%d) vs unrefined (%d,%d)",
						cfg, stage, i, res.Candidates[i].R, res.Candidates[i].S,
						ref.Candidates[i].R, ref.Candidates[i].S)
				}
			}
		}
		check("cold")
		check("rejoin")
		if len(r) > 0 && len(data) >= 4 {
			i := int(data[2]) % len(r)
			switch data[3] % 3 {
			case 0: // grow within the world — may stay in-tile or cross
				r[i].Rect.MaxX += float64(data[0] % 8)
				r[i].Rect.MaxY += float64(data[1] % 8)
			case 1: // move left — typically breaks the sweep order
				r[i].Rect.MinX = -float64(data[0] % 16)
			case 2: // change identity only
				r[i].ID += 777
			}
			check("mutated")
		}
	})
}
