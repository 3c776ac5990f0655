// Command perfbench is the end-to-end benchmark of the native spatial
// joins at the paper's scale. It generates the inputs from a seed, runs one
// workload closed loop from a single client goroutine with the engines at
// GOMAXPROCS workers, checks every op against a reference computed by the
// other engine, and prints its metrics as one JSON line at the end.
//
// Build and run it from the repository root through the wrapper, which
// keeps the build inside .bench_build/:
//
//	bash perfbench/run.sh --workload paper-tree --seed 1 --seconds 30 --trace 0
//
// Workloads (see BENCHMARK.json for why each was chosen):
//
//	paper-tree        TIGER-like maps at scale 1.0; an op STR-builds both
//	                  R*-trees and runs parnative.Join — the paper's algorithm.
//	paper-auto        the same maps; an op runs plan.Analyze and plan.Decide
//	                  and then the planned one-shot join (partjoin.Join).
//	clustered-update  gaussian clusters, 120k rects a side; an op switches S
//	                  to the next state of a seeded cycle over 8 versions,
//	                  each with 1% of S moved, and re-joins on a held
//	                  partjoin.Joiner.
//
// --trace 0 prints the end-to-end metrics; --trace 1 runs the per-layer
// passes (spans around every call into the program, runtime sampler,
// engine timelines, single-worker speed-ups), prints the per-layer metrics
// and the layer self-time table, and writes the spans to
// .bench_build/traces/trace-<workload>-<seed>.json.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
)

func main() {
	workload := flag.String("workload", "", "paper-tree | paper-auto | clustered-update")
	seed := flag.Int64("seed", 1, "input generation seed")
	seconds := flag.Float64("seconds", 20, "measured time of the run")
	trace := flag.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from the traced passes")
	flag.Parse()
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(os.Stderr, "perfbench: --trace must be 0 or 1")
		os.Exit(2)
	}
	if *seconds <= 0 {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be positive")
		os.Exit(2)
	}
	cfg := config{
		workload: *workload, seed: *seed, seconds: *seconds, trace: *trace == 1,
		scale: 1.0, reps: 5,
		traceOut: filepath.Join(".bench_build", "traces", fmt.Sprintf("trace-%s-%d.json", *workload, *seed)),
	}
	res, rep, err := run(cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	hostLine, err := json.Marshal(rep.host)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Printf("host %s\n", hostLine)
	fmt.Printf("%s seed %d: %d ops measured, fail_frac %g", cfg.workload, cfg.seed, rep.ops,
		float64(res.Failed)/float64(res.Attempted))
	if cfg.trace {
		fmt.Printf(", spans in %s\n", cfg.traceOut)
		fmt.Printf("%-22s %12s %7s\n", "layer", "self ms p50", "share")
		for _, l := range rep.layers {
			fmt.Printf("%-22s %12.3f %6.1f%%\n", l.Name, l.SelfMS, 100*l.Share)
		}
	} else {
		fmt.Printf(", join_tail_ms is p%d\n", rep.tailPct)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}
