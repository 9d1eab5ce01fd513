// Command rexbench regenerates the paper's tables and figures.
//
// Usage:
//
//	rexbench -exp fig1           # one artifact (scaled-down workload)
//	rexbench -exp all -full      # everything at paper scale (slow)
//	rexbench -list               # enumerate artifacts
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"rex/internal/experiments"
	"rex/internal/faultnet"
	"rex/internal/loadgen"
)

func main() {
	var (
		exp        = flag.String("exp", "all", "experiment id (table1, fig1..fig7, table2..table4, all)")
		full       = flag.Bool("full", false, "run paper-scale workloads (610/15000 users, 400 epochs)")
		seed       = flag.Int64("seed", 1, "deterministic seed")
		points     = flag.Int("points", 12, "series rows printed per curve")
		scenario   = flag.String("scenario", "", "chaos scenario: a canned name (see internal/faultnet.Canned) or a JSON spec file; injects seeded message loss/delay/duplication/reordering, partitions and churn into every simulated run — combined with -load it runs the workload under the fault schedule")
		list       = flag.Bool("list", false, "list available experiments")
		load       = flag.String("load", "", "run a declarative load workload instead of a paper artifact: a canned spec name (steady, zipf-burst, flashcrowd) or a JSON spec file")
		loadTarget = flag.String("load-target", "", "comma-separated rexd base URLs for live replay (e.g. http://127.0.0.1:8800,http://127.0.0.1:8801); empty = in-process sim cluster")
		loadRetry  = flag.Int("load-retries", 0, "per-event retry budget on 429/503/transport errors (deterministic backoff from the event hash)")
	)
	flag.Parse()

	if *load != "" {
		spec, err := loadgen.Resolve(*load)
		if err != nil {
			fmt.Fprintf(os.Stderr, "rexbench: %v\n", err)
			os.Exit(2)
		}
		var sc *faultnet.Scenario
		if *scenario != "" {
			if sc, err = faultnet.Resolve(*scenario); err != nil {
				fmt.Fprintf(os.Stderr, "rexbench: %v\n", err)
				os.Exit(2)
			}
		}
		// Sim mode runs a two-node in-process cluster under the scenario's
		// faults; live mode replays against rexd daemons started with it.
		var tgt loadgen.Target
		if *loadTarget != "" {
			tgt, err = loadgen.NewHTTPTarget(strings.Split(*loadTarget, ","), spec.TickMillis, sc)
		} else {
			tgt, err = loadgen.NewEngineClusterOpts(spec, 2, loadgen.ClusterOptions{Scenario: sc})
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "rexbench: load: %v\n", err)
			os.Exit(1)
		}
		// The runner judges its own run: a broken invariant (an acked
		// rating lost, a perturbed schedule, unbounded shedding, ...) comes
		// back as the error, and the exit code is the verdict.
		rep, err := loadgen.Run(spec, tgt, loadgen.Options{Retries: *loadRetry})
		if rep != nil {
			rep.Fprint(os.Stdout)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "rexbench: load: %v\n", err)
			os.Exit(1)
		}
		return
	}

	if *list {
		for _, e := range experiments.All() {
			fmt.Printf("%-8s %s\n", e.ID, e.Title)
		}
		return
	}

	params := experiments.Params{Full: *full, Seed: *seed, Out: os.Stdout, Points: *points}
	if *scenario != "" {
		sc, err := faultnet.Resolve(*scenario)
		if err != nil {
			fmt.Fprintf(os.Stderr, "rexbench: %v\n", err)
			os.Exit(2)
		}
		params.Scenario = sc
		fmt.Printf("### chaos scenario %q (seed %d): drop=%.2f delay=%.2f dup=%.2f reorder=%.2f partitions=%d churn=%d\n\n",
			sc.Name, sc.Seed, sc.Drop, sc.Delay, sc.Duplicate, sc.Reorder, len(sc.Partitions), len(sc.Churn))
	}
	run := func(e experiments.Experiment) {
		start := time.Now()
		fmt.Printf("### %s — %s\n", e.ID, e.Title)
		if err := e.Run(params); err != nil {
			fmt.Fprintf(os.Stderr, "rexbench: %s: %v\n", e.ID, err)
			os.Exit(1)
		}
		fmt.Printf("### %s done in %v\n\n", e.ID, time.Since(start).Round(time.Millisecond))
	}

	if *exp == "all" {
		for _, e := range experiments.All() {
			run(e)
		}
		return
	}
	e, ok := experiments.ByID(*exp)
	if !ok {
		fmt.Fprintf(os.Stderr, "rexbench: unknown experiment %q; available: %v\n", *exp, experiments.IDs())
		os.Exit(2)
	}
	run(e)
}
