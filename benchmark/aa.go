package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"strings"
)

// manifest is BENCHMARK.json.
type manifest struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func loadManifest(path string) (*manifest, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var m manifest
	if err := json.Unmarshal(b, &m); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &m, nil
}

// runAA makes two interleaved sets (A, B, A, B, ...) of N runs of every
// workload, each run a fresh process of this same binary as the acceptance
// driver would start it, run i of either set on seed+i. Per
// workload/metric it prints both medians, their difference, each set's
// spread (interquartile range over median, as Python's
// statistics.quantiles gives it) and the bound, and flags what exceeds the
// bound. Run it from the repository root.
func runAA(o options, stdout, stderr io.Writer) int {
	m, err := loadManifest("BENCHMARK.json")
	if err != nil {
		fmt.Fprintf(stderr, "benchmark: -aa reads BENCHMARK.json from the current directory: %v\n", err)
		return 2
	}
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintf(stderr, "benchmark: %v\n", err)
		return 2
	}
	printHost(stdout, o)
	fmt.Fprintf(stdout, "# A/A: 2 x %d runs per workload, %d s each, seeds %d..%d\n",
		o.aa, m.RunSeconds, o.seed, o.seed+int64(o.aa)-1)
	over := 0
	for _, wl := range m.Workloads {
		if o.workload != "" && o.workload != wl.Name {
			continue
		}
		sets := [2]map[string][]float64{{}, {}}
		for i := 0; i < o.aa; i++ {
			for s := range sets {
				args := []string{
					"-workload", wl.Name, "-seed", fmt.Sprint(o.seed + int64(i)),
					"-seconds", fmt.Sprint(m.RunSeconds), "-trace", "0", "-out", o.out,
				}
				if o.smoke {
					args = append(args, "-smoke")
				}
				line, err := runOnce(self, args, stderr)
				if err != nil {
					fmt.Fprintf(stderr, "benchmark: -aa %s set %c run %d: %v\n", wl.Name, 'A'+s, i, err)
					return 1
				}
				for name, v := range line.Metrics {
					sets[s][name] = append(sets[s][name], v.Value)
				}
			}
		}
		fmt.Fprintf(stdout, "\n%-32s %12s %12s %8s %9s %9s %6s\n", "workload/metric", "median A", "median B", "diff", "spread A", "spread B", "bound")
		for _, em := range m.EndToEnd {
			a, b := sets[0][em.Name], sets[1][em.Name]
			ma, mb := median(a), median(b)
			diff := (mb - ma) / ma // B worse than A when positive and lower is better
			if em.Better == "higher" {
				diff = -diff
			}
			flag := ""
			if diff > em.Bound || -diff > em.Bound {
				flag = "  OVER (medians)"
				over++
			}
			if spread(a) > em.Bound || spread(b) > em.Bound {
				flag += "  OVER (spread)"
				over++
			}
			fmt.Fprintf(stdout, "%-32s %12.6g %12.6g %+7.2f%% %8.2f%% %8.2f%% %5.0f%%%s\n",
				wl.Name+"/"+em.Name, ma, mb, diff*100, spread(a)*100, spread(b)*100, em.Bound*100, flag)
		}
	}
	if over > 0 {
		fmt.Fprintf(stdout, "\n%d comparisons over their bound\n", over)
		return 1
	}
	fmt.Fprintln(stdout, "\nevery workload/metric within its bound")
	return 0
}

// runOnce starts one run and parses the last line of its standard output.
func runOnce(self string, args []string, stderr io.Writer) (*resultLine, error) {
	cmd := exec.Command(self, args...)
	var out bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("%w\n%s", err, out.String())
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var line resultLine
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &line); err != nil {
		return nil, fmt.Errorf("last line is not a result: %w", err)
	}
	if !line.Correct {
		return nil, fmt.Errorf("run reported correct=false")
	}
	return &line, nil
}
