// Command bench is the repository's benchmark: it runs one workload in
// this process, checks the outputs, and prints every metric by name with
// its unit, ending with one JSON object on the last line of standard
// output. See README.md for the metric dictionary and BENCHMARK.json, at
// the repository root, for the bounds.
//
//	go run ./bench --workload train-dense --seed 1 --seconds 20 --trace 0
//	go run ./bench --selfcheck
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
)

// outDir receives span files and probe scratch; the root .gitignore names
// it. It is a variable only so that the test can point it at a temporary
// directory.
var outDir = "bench/out"

// metricSet is the ordered list of metrics one run reports.
type metricSet struct {
	names []string
	vals  map[string]metricValue
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func newMetricSet() *metricSet { return &metricSet{vals: make(map[string]metricValue)} }

func (m *metricSet) put(name, unit string, v float64) {
	if _, ok := m.vals[name]; !ok {
		m.names = append(m.names, name)
	}
	m.vals[name] = metricValue{Value: v, Unit: unit}
}

func (m *metricSet) print() {
	for _, n := range m.names {
		fmt.Printf("%-40s %16.6g %s\n", n, m.vals[n].Value, m.vals[n].Unit)
	}
}

// result is the run's last line of output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() {
	var (
		name      = flag.String("workload", "", "workload to run: train-dense, train-sparse-tcp, serve-row-open or serve-batch-closed")
		seed      = flag.Int64("seed", 1, "seed the workload's inputs are drawn from")
		seconds   = flag.Float64("seconds", 20, "length of the measured window")
		trace     = flag.Int("trace", 0, "1 runs the traced per-layer pass in place of the end-to-end pass")
		selfcheck = flag.Bool("selfcheck", false, "run every workload twice over five seeds and compare the two sets against BENCHMARK.json")
	)
	flag.Parse()

	if *selfcheck {
		if err := selfCheck(*seconds); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			os.Exit(1)
		}
		return
	}
	w, err := workloadByName(*name)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		flag.Usage()
		os.Exit(2)
	}
	fmt.Printf("# %s seed=%d seconds=%g trace=%d\n# host: %s\n# why: %s\n", w.Name, *seed, *seconds, *trace, fingerprint(), w.Why)
	var res result
	if *trace != 0 {
		res, err = w.runTraced(*seed, *seconds)
	} else {
		res, err = w.runEndToEnd(*seed, *seconds)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}
