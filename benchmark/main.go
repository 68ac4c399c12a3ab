// Command benchmark is the mesh's one benchmark: five workloads, four
// gated end-to-end metrics, and a traced run that reads each layer
// from outside. BENCHMARK.json at the repository root declares the
// command, metrics and workloads; README.md is the glossary.
//
//	bash benchmark/run.sh --workload admit_warm --seed 1 --seconds 12 --trace 0
//	bash benchmark/run.sh --workload admit_cold --seed 1 --seconds 12 --trace 1
//	bash benchmark/run.sh --compare resultsA resultsB
//
// One invocation runs one workload in a fresh process, so no cache,
// store or prover state can leak between workloads. The last line of
// standard output is one JSON object: correct, attempted, failed,
// metrics.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
)

// defaultSeconds is BENCHMARK.json's run_seconds.
const defaultSeconds = 12

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: "+workloadNames())
	seed := fs.Int64("seed", 1, "seed of the generated inputs")
	seconds := fs.Float64("seconds", defaultSeconds, "length of the timed region")
	trace := fs.Int("trace", 0, "1: traced run, prints the per-layer metrics; 0: prints the end-to-end metrics")
	outDir := fs.String("out", filepath.Join(".bench_build", "results"), "directory for result files, span files and scratch data")
	cmp := fs.Bool("compare", false, "compare two result sets: -compare A B (files or directories); exit 1 on a regression")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *cmp {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "benchmark: -compare wants two result files or directories")
			return 2
		}
		return compare(fs.Arg(0), fs.Arg(1), stdout)
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) || fs.NArg() != 0 {
		fmt.Fprintln(stderr, "benchmark: want --workload <name> --seed <n> --seconds <s> --trace <0|1>")
		return 2
	}
	if err := os.MkdirAll(*outDir, 0o755); err != nil {
		fmt.Fprintf(stderr, "benchmark: %v\n", err)
		return 2
	}
	res, err := runWorkload(runSpec{
		workload: *name, seed: *seed, seconds: *seconds, traced: *trace == 1,
		scale: fullScale, outDir: *outDir,
	}, stderr)
	if err != nil {
		fmt.Fprintf(stderr, "benchmark: %s: %v\n", *name, err)
		return 2
	}
	if path, err := res.write(*outDir); err != nil {
		fmt.Fprintf(stderr, "benchmark: %v\n", err)
		return 2
	} else {
		fmt.Fprintf(stderr, "result written to %s\n", path)
	}
	if err := res.print(stdout); err != nil {
		return 2
	}
	if !res.Correct {
		return 1
	}
	return 0
}
