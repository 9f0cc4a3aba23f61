package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"slices"
	"strings"
)

// benchmarkFile mirrors the parts of BENCHMARK.json that -selfcheck reads.
type benchmarkFile struct {
	EndToEnd []struct {
		Name  string  `json:"name"`
		Bound float64 `json:"bound"`
	} `json:"end_to_end"`
}

// selfcheckSeeds is the number of seeds in each of -selfcheck's two sets.
const selfcheckSeeds = 5

// exactCounts are the per-layer metrics that are counts of what the
// program did rather than times: two traced runs of the same inputs must
// print the same value.
var exactCounts = []string{
	"cluster.rounds_per_epoch", "cluster.bytes_per_epoch",
	"device.launches_per_epoch", "device.flops_per_epoch", "device.bytes_per_epoch",
	"cg.iters",
}

// selfCheck runs two full sets on the current build — every workload over
// seeds 1..selfcheckSeeds untraced and once traced, twice — and prints
// each end-to-end metric's two medians, the spread across seeds and the
// bound from BENCHMARK.json. It fails when the two medians differ, either
// way, by more than the bound, when a spread exceeds the bound, when an
// exact count differs between the sets, or when any operation failed.
func selfCheck(seconds float64) error {
	raw, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		return fmt.Errorf("selfcheck reads the bounds from the repository root: %w", err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(raw, &bf); err != nil {
		return fmt.Errorf("BENCHMARK.json: %w", err)
	}
	self, err := os.Executable()
	if err != nil {
		return err
	}
	bad := 0
	for _, w := range workloads {
		var sets [2]map[string][]float64
		var traced [2]result
		for s := range sets {
			sets[s] = make(map[string][]float64)
			for seed := 1; seed <= selfcheckSeeds; seed++ {
				res, err := runChild(self, w.Name, seed, seconds, 0)
				if err != nil {
					return err
				}
				bad += reportFailed(w.Name, seed, s, res)
				for name, v := range res.Metrics {
					sets[s][name] = append(sets[s][name], v.Value)
				}
			}
			if traced[s], err = runChild(self, w.Name, 1, seconds, 1); err != nil {
				return err
			}
			bad += reportFailed(w.Name+" traced", 1, s, traced[s])
		}
		fmt.Printf("\n%s (%d seeds per set)\n%-26s %14s %14s %9s %9s %7s\n", w.Name, selfcheckSeeds, "metric", "median 1", "median 2", "spread 1", "spread 2", "bound")
		for _, e := range bf.EndToEnd {
			a, b := sets[0][e.Name], sets[1][e.Name]
			ma, mb := median(a), median(b)
			verdict := ""
			switch {
			case math.Abs(mb-ma)/math.Abs(ma) > e.Bound:
				verdict = "  MEDIANS DISAGREE"
			case e.Name != "setup_s" && max(spread(a), spread(b)) > e.Bound:
				verdict = "  SPREAD OVER BOUND"
			case e.Name == "epochs_to_target" && !slices.Equal(a, b): // an exact count
				verdict = "  COUNT DIFFERS"
			}
			if verdict != "" {
				bad++
			}
			fmt.Printf("%-26s %14.6g %14.6g %8.2f%% %8.2f%% %6.1f%%%s\n", e.Name, ma, mb, 100*spread(a), 100*spread(b), 100*e.Bound, verdict)
		}
		for _, name := range exactCounts {
			a, b := traced[0].Metrics[name].Value, traced[1].Metrics[name].Value
			verdict := ""
			if a != b {
				verdict = "  COUNT DIFFERS"
				bad++
			}
			fmt.Printf("%-26s %14.6g %14.6g %36s%s\n", name, a, b, "exact", verdict)
		}
	}
	if bad > 0 {
		return fmt.Errorf("selfcheck: %d disagreements", bad)
	}
	fmt.Println("\nselfcheck: both sets agree within every bound")
	return nil
}

// reportFailed prints a run whose operations did not all succeed and
// returns 1 for it.
func reportFailed(what string, seed, set int, res result) int {
	if res.Correct && res.Failed == 0 {
		return 0
	}
	fmt.Printf("%s seed %d set %d: %d of %d operations failed\n", what, seed, set+1, res.Failed, res.Attempted)
	return 1
}

// runChild runs one workload in its own process, so that peak_rss_mb is
// the workload's own, and parses the JSON on its last line of output.
func runChild(self, workload string, seed int, seconds float64, trace int) (result, error) {
	cmd := exec.Command(self, "-workload", workload, "-seed", fmt.Sprint(seed), "-seconds", fmt.Sprint(seconds), "-trace", fmt.Sprint(trace))
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return result{}, fmt.Errorf("%s seed %d trace %d: %w", workload, seed, trace, err)
	}
	lines := strings.Split(strings.TrimSpace(string(out)), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		return result{}, fmt.Errorf("%s seed %d trace %d: last line is not a result: %w", workload, seed, trace, err)
	}
	return res, nil
}
