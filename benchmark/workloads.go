package main

import (
	"fmt"
	"math"
	"runtime"
	"strings"
	"time"

	"repro/internal/bench"
)

// nproc is the core count everything is sized by: GOMAXPROCS, the
// closed-loop client count (callers of a gateway wait for their
// reply, so one request in flight each), and the set-up fan-out.
func nproc() int { return runtime.GOMAXPROCS(0) }

// worldClock anchors the validity windows of generated certificates.
// It is the hour, not the instant, so the same seed gives byte-identical
// inputs to every run of that hour; the windows (a minute before to
// twelve hours after) still cover any run.
func worldClock() time.Time { return time.Now().Truncate(time.Hour) }

// scale holds every size of a run. The full scale is a set of
// constants, identical on every commit; only the seed and the length
// of the timed region are arguments. The toy scale is what the
// self-test runs.
type scale struct {
	name string

	slices    int
	setupReps int // set-ups per run; setup_s is their median

	warmPrincipals int
	orgs           int
	gossip         time.Duration
	flushEvery     time.Duration
	victimEvery    time.Duration
	revokeRounds   int

	// Inputs that are consumed (a principal's first admit, a fresh
	// certificate) are provisioned per second of timed region, with
	// headroom over what the seed achieves, so a region is ended by
	// the clock and not by its inputs on any plausible build.
	coldPerSecond    float64
	publishPerSecond float64

	bootstrapCerts int
	bootstrapReps  int

	// replay is the effort of the direct-call layer replay, following
	// section 7.1: runs of iters operations, the first run discarded,
	// re-run above CoV 0.1.
	replay bench.Options
}

var fullScale = scale{
	name:             "full",
	slices:           10,
	setupReps:        3,
	warmPrincipals:   400,
	orgs:             24,
	gossip:           250 * time.Millisecond,
	flushEvery:       100 * time.Millisecond,
	victimEvery:      time.Second,
	revokeRounds:     20,
	coldPerSecond:    200,
	publishPerSecond: 6000,
	bootstrapCerts:   20000,
	bootstrapReps:    3,
	replay:           bench.Options{Runs: 5, Iters: 200, MaxRetries: 2},
}

var toyScale = scale{
	name:             "toy",
	slices:           5,
	setupReps:        1,
	warmPrincipals:   16,
	orgs:             3,
	gossip:           40 * time.Millisecond,
	flushEvery:       50 * time.Millisecond,
	victimEvery:      150 * time.Millisecond,
	revokeRounds:     50,
	coldPerSecond:    500,
	publishPerSecond: 6000,
	bootstrapCerts:   300,
	bootstrapReps:    3,
	replay:           bench.Options{Runs: 2, Iters: 10, MaxRetries: 0},
}

// newWorkload builds the named workload at scale sc. tr is nil for an
// untraced world.
func newWorkload(name string, sc scale, seed int64, seconds float64, tr *tracer, workDir string) (workload, error) {
	admit := admitConfig{
		seed: seed, principals: sc.warmPrincipals, orgs: sc.orgs, clients: nproc(),
		gossip: sc.gossip, slices: sc.slices, traceEvery: 4,
		flushEvery: sc.flushEvery, victimEvery: sc.victimEvery, revokeRounds: sc.revokeRounds,
		workDir: workDir,
	}
	dir := dirConfig{
		seed: seed, clients: nproc(), gossip: sc.gossip, slices: sc.slices, workDir: workDir,
	}
	switch name {
	case "admit_warm":
		return &admitWorkload{cfg: admit, tr: tr}, nil
	case "admit_cold":
		admit.cold = true
		admit.traceEvery = 1
		admit.principals = int(math.Ceil(sc.coldPerSecond*seconds)) + coldWarmup
		return &admitWorkload{cfg: admit, tr: tr}, nil
	case "admit_churn":
		admit.churn = true
		return &admitWorkload{cfg: admit, tr: tr}, nil
	case "dir_publish":
		dir.n = int(math.Ceil(sc.publishPerSecond * seconds))
		return &publishWorkload{cfg: dir, tr: tr}, nil
	case "dir_bootstrap":
		dir.n, dir.minReps = sc.bootstrapCerts, sc.bootstrapReps
		return &bootstrapWorkload{cfg: dir, tr: tr}, nil
	}
	return nil, fmt.Errorf("no workload %q (have %s)", name, workloadNames())
}

func workloadNames() string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return strings.Join(names, ", ")
}
