package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strings"
)

// benchSpec is the part of BENCHMARK.json the summary needs.
type benchSpec struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// runSet holds one set's values: workload -> metric -> one value per run.
type runSet map[string]map[string][]float64

// readRuns parses lines of "<set> <workload> <result JSON>", as the
// proof loop writes them; lines with another shape are skipped.
func readRuns(path string) (map[string]runSet, []string, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, nil, err
	}
	defer f.Close()
	sets := map[string]runSet{}
	var order []string
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		f := strings.SplitN(sc.Text(), " ", 3)
		if len(f) != 3 || !strings.HasPrefix(f[2], "{") {
			continue
		}
		var r result
		if err := json.Unmarshal([]byte(f[2]), &r); err != nil {
			return nil, nil, fmt.Errorf("%s: %w", path, err)
		}
		if !r.Correct {
			return nil, nil, fmt.Errorf("%s: a %s run reported incorrect answers", path, f[1])
		}
		if sets[f[0]] == nil {
			sets[f[0]] = runSet{}
			order = append(order, f[0])
		}
		if sets[f[0]][f[1]] == nil {
			sets[f[0]][f[1]] = map[string][]float64{}
		}
		for name, m := range r.Metrics {
			sets[f[0]][f[1]][name] = append(sets[f[0]][f[1]][name], m.Value)
		}
	}
	return sets, order, sc.Err()
}

// summarizeRuns prints, per set, workload and end-to-end metric, the
// median and the interquartile spread as a share of the median against
// the metric's bound; with two sets it also prints how much worse the
// second set's median is than the first's. It fails when a spread
// (setup_s excepted) exceeds its bound or a second median is worse by
// more than the bound.
func summarizeRuns(benchFile, runsFile string) error {
	b, err := os.ReadFile(benchFile)
	if err != nil {
		return err
	}
	var spec benchSpec
	if err := json.Unmarshal(b, &spec); err != nil {
		return fmt.Errorf("%s: %w", benchFile, err)
	}
	sets, order, err := readRuns(runsFile)
	if err != nil {
		return err
	}
	failed := false
	for _, set := range order {
		var wls []string
		for wl := range sets[set] {
			wls = append(wls, wl)
		}
		sort.Strings(wls)
		for _, wl := range wls {
			for _, m := range spec.EndToEnd {
				v := sets[set][wl][m.Name]
				if len(v) == 0 {
					fmt.Printf("%s %-18s %-14s missing\n", set, wl, m.Name)
					failed = true
					continue
				}
				sp := spread(v)
				flag := ""
				switch {
				case m.Name != "setup_s" && sp > m.Bound:
					flag, failed = "OVER BOUND", true
				case m.Name != "setup_s" && sp > m.Bound/3:
					flag = "over a third of the bound"
				}
				fmt.Printf("%s %-18s %-14s n=%-3d median %-12.6g spread %.4f (bound %.2f) %s\n",
					set, wl, m.Name, len(v), median(v), sp, m.Bound, flag)
			}
		}
	}
	if len(order) == 2 {
		a, c := sets[order[0]], sets[order[1]]
		for wl := range a {
			for _, m := range spec.EndToEnd {
				if len(a[wl][m.Name]) == 0 || len(c[wl][m.Name]) == 0 {
					continue
				}
				d := worseBy(a[wl][m.Name], c[wl][m.Name], m.Better)
				flag := ""
				if d > m.Bound {
					flag, failed = "WORSE THAN BOUND", true
				}
				fmt.Printf("%s vs %s %-18s %-14s second worse by %+.4f (bound %.2f) %s\n", order[0], order[1], wl, m.Name, d, m.Bound, flag)
			}
		}
	}
	if failed {
		return fmt.Errorf("runs outside the benchmark's bounds")
	}
	return nil
}
