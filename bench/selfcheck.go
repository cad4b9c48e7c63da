package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"strconv"
)

// selfCheck asks whether the benchmark agrees with itself: it runs each
// workload (or only the named one) as two interleaved sets, A B A B …,
// of runs fresh processes of this same binary, run i of either set on
// seed base+i, and compares the sets the way a gate compares a parent
// with a change. Per workload × end-to-end metric it prints both
// medians, the gap between them against the metric's bound, and each
// set's quartile spread. It fails when a gap exceeds its bound or a
// spread (setup_s excepted, which a gate compares by medians only)
// exceeds it.
func selfCheck(only string, runs int, base int64, seconds int) error {
	if runs < 2 {
		return fmt.Errorf("-selfcheck needs -runs of at least 2")
	}
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	var over, half, pairings int
	for _, wl := range workloads {
		if only != "" && wl.name != only {
			continue
		}
		sets := [2]map[string][]float64{{}, {}}
		for i := 0; i < runs; i++ {
			for s := range sets {
				res, err := runOnce(exe, wl.name, base+int64(i), seconds)
				if err != nil {
					return fmt.Errorf("%s, set %c, run %d: %w", wl.name, 'A'+s, i, err)
				}
				for name, m := range res.Metrics {
					sets[s][name] = append(sets[s][name], m.Value)
				}
			}
		}
		fmt.Printf("\n%s, %d runs per set, seeds %d..%d\n", wl.name, runs, base, base+int64(runs)-1)
		fmt.Printf("%-28s %12s %12s %8s %7s %9s %9s\n", "metric", "median A", "median B", "gap", "bound", "spread A", "spread B")
		for _, spec := range endToEnd {
			a, b := sets[0][spec.name], sets[1][spec.name]
			gap := median(b)/median(a) - 1
			if gap < 0 {
				gap = -gap
			}
			spreadA, spreadB := quartileSpread(a), quartileSpread(b)
			worst := gap
			if spec.name != "setup_s" {
				worst = max(gap, spreadA, spreadB)
			}
			mark := ""
			switch {
			case worst > spec.bound:
				mark = "  OVER"
				over++
			case worst > spec.bound/2:
				mark = "  above half"
				half++
			}
			pairings++
			fmt.Printf("%-28s %12.5g %12.5g %7.2f%% %6.0f%% %8.2f%% %8.2f%%%s\n",
				spec.name, median(a), median(b), gap*100, spec.bound*100, spreadA*100, spreadB*100, mark)
		}
	}
	if pairings == 0 {
		return fmt.Errorf("unknown workload %q", only)
	}
	fmt.Printf("\n%d pairings: %d over their bound, %d above half of it\n", pairings, over, half)
	if over > 0 {
		return fmt.Errorf("the benchmark disagrees with itself on %d of %d pairings", over, pairings)
	}
	return nil
}

// runOnce runs one untraced benchmark process and parses its last line.
func runOnce(exe, workload string, seed int64, seconds int) (*result, error) {
	cmd := exec.Command(exe, "-workload", workload, "-seed", strconv.FormatInt(seed, 10),
		"-seconds", strconv.Itoa(seconds), "-trace", "0")
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, err
	}
	lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
	var res result
	if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil {
		return nil, fmt.Errorf("parsing result line: %w", err)
	}
	if !res.Correct {
		return nil, fmt.Errorf("%d of %d ops failed", res.Failed, res.Attempted)
	}
	return &res, nil
}
