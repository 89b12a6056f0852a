package main

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestPercentileCountsFailuresAsMisses(t *testing.T) {
	lat := []float64{5, 1, 4, 2, 3} // sorted: 1 2 3 4 5
	cases := []struct {
		failed int
		p      float64
		want   float64
	}{
		{0, 50, 3},
		{0, 100, 5},
		{0, 1, 1},
		// Five failures double the sample: the median rank is 5 of 10,
		// still a success; p60 (rank 6) lands on a failure.
		{5, 50, 5},
		{5, 60, math.Inf(1)},
		// One failure among six: p95 is rank 6, the failure.
		{1, 95, math.Inf(1)},
		{1, 80, 5},
	}
	for _, c := range cases {
		if got := percentile(lat, c.failed, c.p); got != c.want {
			t.Errorf("percentile(failed=%d, p%g) = %v, want %v", c.failed, c.p, got, c.want)
		}
	}
	if got := percentile(nil, 3, 50); !math.IsInf(got, 1) {
		t.Errorf("all failed: p50 = %v, want +Inf", got)
	}
	if got := percentile(nil, 0, 50); !math.IsNaN(got) {
		t.Errorf("no samples: p50 = %v, want NaN", got)
	}
}

func TestPercentileDoesNotReorderInput(t *testing.T) {
	lat := []float64{3, 1, 2}
	percentile(lat, 0, 50)
	if lat[0] != 3 || lat[1] != 1 || lat[2] != 2 {
		t.Fatalf("input reordered: %v", lat)
	}
}

// The expected quartiles are Python's statistics.quantiles(v, n=4),
// the definition the run-to-run spread is judged by.
func TestQuartilesMatchPython(t *testing.T) {
	cases := []struct {
		v      []float64
		q1, q3 float64
	}{
		{[]float64{3, 1, 4, 1, 5, 9, 2, 6, 5, 3}, 1.75, 5.25},
		{[]float64{1, 2}, 0.75, 2.25},
		{[]float64{5, 1, 7}, 1, 7},
		{[]float64{10, 20, 30, 40, 50, 60, 70, 80, 90, 100}, 27.5, 82.5},
	}
	for _, c := range cases {
		q1, q3 := quartiles(c.v)
		if math.Abs(q1-c.q1) > 1e-12 || math.Abs(q3-c.q3) > 1e-12 {
			t.Errorf("quartiles(%v) = %v, %v; want %v, %v", c.v, q1, q3, c.q1, c.q3)
		}
	}
}

func TestMedianAndSpread(t *testing.T) {
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("median = %v, want 2.5", m)
	}
	if m := median([]float64{9, 1, 5}); m != 5 {
		t.Errorf("median = %v, want 5", m)
	}
	v := []float64{10, 20, 30, 40, 50, 60, 70, 80, 90, 100}
	if got, want := spread(v), (82.5-27.5)/55; math.Abs(got-want) > 1e-12 {
		t.Errorf("spread = %v, want %v", got, want)
	}
	if got := spread([]float64{7, 7, 7, 7}); got != 0 {
		t.Errorf("spread of constant runs = %v, want 0", got)
	}
}

func TestWorseBy(t *testing.T) {
	base := []float64{10, 10, 10}
	if got := worseBy(base, []float64{12, 12, 12}, "lower"); math.Abs(got-0.2) > 1e-12 {
		t.Errorf("latency up 20%%: worse by %v, want 0.2", got)
	}
	if got := worseBy(base, []float64{8, 8, 8}, "lower"); math.Abs(got+0.2) > 1e-12 {
		t.Errorf("latency down 20%%: worse by %v, want -0.2", got)
	}
	if got := worseBy(base, []float64{8, 8, 8}, "higher"); math.Abs(got-0.2) > 1e-12 {
		t.Errorf("throughput down 20%%: worse by %v, want 0.2", got)
	}
	// Medians, not means: one outlier run does not move the verdict.
	if got := worseBy(base, []float64{10, 10, 1000}, "lower"); got != 0 {
		t.Errorf("outlier run: worse by %v, want 0", got)
	}
}

func TestSummarizeRunsComparesTwoSets(t *testing.T) {
	dir := t.TempDir()
	bench := filepath.Join(dir, "BENCHMARK.json")
	if err := os.WriteFile(bench, []byte(`{"end_to_end":[
		{"name":"search_p50_ms","unit":"ms","better":"lower","bound":0.1},
		{"name":"setup_s","unit":"s","better":"lower","bound":0.2}]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	line := func(set string, p50, setup float64) string {
		return fmt.Sprintf(`%s wl {"correct":true,"attempted":1,"failed":0,"metrics":{"search_p50_ms":{"value":%g,"unit":"ms"},"setup_s":{"value":%g,"unit":"s"}}}`+"\n", set, p50, setup)
	}
	write := func(lines ...string) string {
		p := filepath.Join(dir, "runs.txt")
		if err := os.WriteFile(p, []byte(strings.Join(lines, "")), 0o644); err != nil {
			t.Fatal(err)
		}
		return p
	}
	var steady []string
	for i := 0; i < 10; i++ {
		steady = append(steady, line("A", 10+float64(i%3)*0.1, 1+float64(i%5)*0.1))
	}
	var same, slower []string
	for i := 0; i < 10; i++ {
		same = append(same, line("B", 10.05+float64(i%3)*0.1, 1.05+float64(i%5)*0.1))
		slower = append(slower, line("B", 11.5+float64(i%3)*0.1, 1+float64(i%5)*0.1))
	}
	if err := summarizeRuns(bench, write(append(steady, same...)...)); err != nil {
		t.Errorf("agreeing sets rejected: %v", err)
	}
	if err := summarizeRuns(bench, write(append(steady, slower...)...)); err == nil {
		t.Error("a second set 15% slower passed a 10% bound")
	}
	// setup_s is exempt from the spread check, not from the comparison.
	var noisySetup []string
	for i := 0; i < 10; i++ {
		noisySetup = append(noisySetup, line("A", 10, 1+float64(i)))
	}
	if err := summarizeRuns(bench, write(noisySetup...)); err != nil {
		t.Errorf("noisy setup_s failed the spread check: %v", err)
	}
	var noisyP50 []string
	for i := 0; i < 10; i++ {
		noisyP50 = append(noisyP50, line("A", 10+float64(i), 1))
	}
	if err := summarizeRuns(bench, write(noisyP50...)); err == nil {
		t.Error("a 50% spread passed a 10% bound")
	}
	bad := `A wl {"correct":false,"attempted":1,"failed":0,"metrics":{}}` + "\n"
	if err := summarizeRuns(bench, write(bad)); err == nil {
		t.Error("an incorrect run was summarized")
	}
}
