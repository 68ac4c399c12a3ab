// Command sf-loadgen drives an in-process Snowflake mesh — N
// gateways, M gossip-peered WAL-backed certificate directories, one
// protected email database — with K synthetic principals under a
// seeded heavy-tailed delegation graph, and measures the four
// canonical flows: cold proof discovery, warm cached admit,
// publish→visible-at-peer, revoke→rejected. Correctness is asserted
// while the load runs; any violation makes the exit status non-zero.
//
// Usage:
//
//	sf-loadgen -profile smoke -out BENCH_8.json
//	sf-loadgen -profile standard -principals 2000 -concurrency 64
//	sf-loadgen -profile soak -seed 7
//
// Flags override the chosen profile field-by-field. The -out file is
// the per-PR JSON trajectory (same schema as BENCH_7.json); smoke
// runs carry recorded baselines so speedup ratios appear without
// digging through git history.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"time"

	"repro/internal/certdir"
	"repro/internal/loadgen"
)

func main() {
	profile := flag.String("profile", "smoke", "load shape: smoke, standard, or soak")
	gateways := flag.Int("gateways", 0, "override: number of gateways")
	directories := flag.Int("directories", 0, "override: number of directories")
	principals := flag.Int("principals", 0, "override: number of synthetic principals")
	orgs := flag.Int("orgs", 0, "override: number of organization issuers")
	seed := flag.Int64("seed", -1, "override: graph/schedule seed")
	zipf := flag.Float64("zipf", 0, "override: zipf exponent (>1) for fan-out and targeting")
	warmOps := flag.Int("warm-ops", 0, "override: warm-flow request count")
	publishOps := flag.Int("publish-ops", 0, "override: publish-visibility probes")
	revocations := flag.Int("revocations", 0, "override: revoke-rejection probes")
	concurrency := flag.Int("concurrency", 0, "override: client workers")
	churnWorkers := flag.Int("churn", -1, "override: background publish/revoke workers")
	churnOps := flag.Int("churn-ops", 0, "override: cycles per churn worker")
	gossip := flag.Duration("gossip-interval", 0, "override: gossip/CRL-pull period")
	fsync := flag.String("fsync", "", "override: WAL sync policy (always, interval, never)")
	pr := flag.Int("pr", 8, "PR number stamped into the JSON report")
	out := flag.String("out", "", "write the JSON trajectory report here")
	flag.Parse()

	mk, ok := loadgen.Profiles()[*profile]
	if !ok {
		log.Fatalf("sf-loadgen: unknown profile %q (want smoke, standard, or soak)", *profile)
	}
	cfg := mk()
	override := false
	set := func(cond bool, apply func()) {
		if cond {
			apply()
			override = true
		}
	}
	set(*gateways > 0, func() { cfg.Gateways = *gateways })
	set(*directories > 0, func() { cfg.Directories = *directories })
	set(*principals > 0, func() { cfg.Principals = *principals })
	set(*orgs > 0, func() { cfg.Orgs = *orgs })
	set(*seed >= 0, func() { cfg.Seed = *seed })
	set(*zipf > 0, func() { cfg.ZipfS = *zipf })
	set(*warmOps > 0, func() { cfg.WarmOps = *warmOps })
	set(*publishOps > 0, func() { cfg.PublishOps = *publishOps })
	set(*revocations > 0, func() { cfg.Revocations = *revocations })
	set(*concurrency > 0, func() { cfg.Concurrency = *concurrency })
	set(*churnWorkers >= 0, func() { cfg.ChurnWorkers = *churnWorkers })
	set(*churnOps > 0, func() { cfg.ChurnOps = *churnOps })
	set(*gossip > 0, func() { cfg.GossipInterval = *gossip })
	if *fsync != "" {
		p, err := certdir.ParseSyncPolicy(*fsync)
		if err != nil {
			log.Fatalf("sf-loadgen: %v", err)
		}
		cfg.Fsync = p
		override = true
	}
	if override {
		// A tweaked profile is no longer the recorded shape; refuse to
		// compare its numbers against the profile's baselines.
		cfg.Profile = "custom"
	}

	start := time.Now()
	res, err := loadgen.Run(cfg)
	if err != nil {
		log.Fatalf("sf-loadgen: %v", err)
	}
	fmt.Print(res.Summary())
	fmt.Printf("total (incl. mesh convergence): %s\n", time.Since(start).Round(time.Millisecond))

	if *out != "" {
		if err := res.ToBench(*pr).WriteFile(*out); err != nil {
			log.Fatalf("sf-loadgen: write %s: %v", *out, err)
		}
		fmt.Printf("wrote %s\n", *out)
	}
	if len(res.Violations) > 0 {
		os.Exit(1)
	}
}
