// Command nadmm-bench regenerates the paper's evaluation artifacts: every
// table and figure (plus the ablations) as text tables and series, each
// followed by one line saying whether the experiment's claim holds at the
// size run. -list prints every experiment with its claim. The command
// takes flags only. Performance, training and serving alike, is measured
// by bench/ (`bash bench/run.sh --workload <name>`).
//
// Examples:
//
//	nadmm-bench -list
//	nadmm-bench -run fig2 -scale 0.5
//	nadmm-bench -all -quick
//	nadmm-bench -run fig1 -network 1g
package main

import (
	"flag"
	"fmt"
	"log"
	"os"

	"newtonadmm"
	"newtonadmm/internal/harness"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("nadmm-bench: ")

	var (
		list    = flag.Bool("list", false, "list the available experiments")
		run     = flag.String("run", "", "experiment id to run (see -list)")
		all     = flag.Bool("all", false, "run every experiment")
		scale   = flag.Float64("scale", 1.0, "dataset size multiplier")
		epochs  = flag.Int("epochs", 0, "override epoch budgets (0 = experiment default)")
		quick   = flag.Bool("quick", false, "smoke-test sizes and budgets")
		network = flag.String("network", "infiniband", "interconnect model: infiniband, 10g, 1g, wan, none")
	)
	flag.Parse()
	if flag.NArg() > 0 {
		log.Printf("unexpected argument %q: nadmm-bench takes flags only; performance is measured by `bash bench/run.sh --workload <name>` (see bench/README.md)", flag.Arg(0))
		os.Exit(2)
	}

	if *list {
		for _, e := range harness.Experiments() {
			fmt.Printf("%-18s %s\n", e.ID, e.Title)
			fmt.Printf("%-18s paper: %s\n", "", e.Paper)
			fmt.Printf("%-18s claim: %s\n", "", e.Claim.Text)
			if e.Claim.Finding != "" {
				fmt.Printf("%-18s finding: %s\n", "", e.Claim.Finding)
			}
			fmt.Println()
		}
		return
	}

	net, err := newtonadmm.NetworkByName(*network)
	if err != nil {
		log.Fatal(err)
	}
	cfg := harness.RunConfig{Scale: *scale, Epochs: *epochs, Quick: *quick, Network: net}

	var targets []harness.Experiment
	switch {
	case *all:
		targets = harness.Experiments()
	case *run != "":
		e, ok := harness.ByID(*run)
		if !ok {
			log.Fatalf("unknown experiment %q; try -list", *run)
		}
		targets = []harness.Experiment{e}
	default:
		fmt.Fprintln(os.Stderr, "need -run <id>, -all, or -list; see -h")
		os.Exit(2)
	}

	if _, err := harness.Run(cfg, os.Stdout, targets); err != nil {
		log.Fatal(err)
	}
}
