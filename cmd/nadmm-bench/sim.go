package main

// The `sim` subcommand: run the deterministic fleet simulator's named
// scenarios (internal/sim) and print their reports. Same scenario +
// same seed = byte-identical output, so a report diff IS a behavior
// diff in the router/batcher/control-plane code under simulation — the
// CI sim-regression job uploads these reports as artifacts.

import (
	"flag"
	"fmt"
	"log"
	"os"
	"time"

	"newtonadmm/internal/sim"
)

func runSimBench(args []string) {
	fs := flag.NewFlagSet("sim", flag.ExitOnError)
	var (
		list     = fs.Bool("list", false, "list the named scenarios")
		scenario = fs.String("scenario", "", "run one named scenario (see -list)")
		all      = fs.Bool("all", false, "run every named scenario")
		seed     = fs.Int64("seed", 0, "override the scenario seed (0 keeps the scenario's own)")
	)
	fs.Parse(args)
	if *seed < 0 {
		log.Printf("sim -seed %d: a seed must be positive (0 keeps the scenario's own)", *seed)
		os.Exit(2)
	}

	if *list {
		for _, sc := range sim.Scenarios() {
			fmt.Printf("%-20s mode=%-7s duration=%-6v load streams=%d faults=%d\n",
				sc.Name, modeName(sc.Mode), sc.Duration, len(sc.Load), len(sc.Faults))
		}
		return
	}

	var scenarios []sim.Scenario
	switch {
	case *all:
		scenarios = sim.Scenarios()
	case *scenario != "":
		sc, ok := sim.ByName(*scenario)
		if !ok {
			log.Fatalf("no scenario %q (see sim -list)", *scenario)
		}
		scenarios = []sim.Scenario{sc}
	default:
		log.Fatal("sim needs -scenario <name>, -all, or -list")
	}

	for i, sc := range scenarios {
		if *seed > 0 {
			sc.Seed = *seed
		}
		start := time.Now()
		res, err := sim.Run(sc)
		if err != nil {
			log.Fatalf("scenario %s: %v", sc.Name, err)
		}
		if i > 0 {
			fmt.Println()
		}
		fmt.Print(res.Report())
		// Wall time goes to stderr: stdout stays the byte-stable report.
		log.Printf("scenario %s wall %v", sc.Name, time.Since(start).Round(time.Millisecond))
	}
}

func modeName(m string) string {
	if m == "" {
		return "replica"
	}
	return m
}
