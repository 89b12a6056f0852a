// Command perfbench is PIMENTO's serving benchmark. It generates a
// workload's documents, profiles and requests from a seed, drives
// pimentod over loopback HTTP with closed-loop clients, checks every
// answer against the repo's differential oracles, and prints the
// end-to-end metrics; with -trace 1 it also replays the same requests
// in process through each layer's public functions and prints the
// per-layer metrics. See DESIGN.md beside this file.
//
//	bash perfbench/run.sh --workload fig5-personalized --seed 1 --seconds 20 --trace 0
//	bash perfbench/run.sh --all --seed 1 --seconds 20
//	bash perfbench/run.sh --summarize results.jsonl
//
// The last line of standard output is one JSON object:
// {"correct":..,"attempted":..,"failed":..,"metrics":{name:{"value":..,"unit":..}}}.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

// config is one benchmark invocation.
type config struct {
	root     string // checkout root
	pimentod string // daemon binary
	workload string
	seed     int64
	seconds  int
	trace    bool
	clients  int
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the machine-readable outcome of one run.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`

	// samples is each metric's sample count, for the report.
	samples map[string]int
	// notes are report lines that are not metrics.
	notes []string
	// mismatches are answers that matched no reference.
	mismatches []string
}

func newResult() *result {
	return &result{Correct: true, Metrics: map[string]metric{}, samples: map[string]int{}}
}

func (r *result) set(name, unit string, v float64, n int) {
	r.Metrics[name] = metric{Value: finite(v), Unit: unit}
	r.samples[name] = n
}

func (r *result) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// finite keeps JSON encodable: a percentile that lands on a failed
// operation is +Inf, reported as 1e12 (far beyond any limit).
func finite(v float64) float64 {
	if math.IsInf(v, 1) {
		return 1e12
	}
	if math.IsNaN(v) {
		return 0
	}
	return v
}

// report prints the human-readable lines, then the JSON result last.
func (r *result) report(name string) {
	for _, n := range r.notes {
		fmt.Printf("# %s: %s\n", name, n)
	}
	names := make([]string, 0, len(r.Metrics))
	for n := range r.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := r.Metrics[n]
		fmt.Printf("# %s: %-34s %14.6g %-6s (n=%d)\n", name, n, m.Value, m.Unit, r.samples[n])
	}
	for i, m := range r.mismatches {
		if i == 20 {
			fmt.Printf("# %s: ... %d more mismatches\n", name, len(r.mismatches)-20)
			break
		}
		fmt.Printf("# %s: %s\n", name, m)
	}
	b, err := json.Marshal(r)
	if err != nil {
		panic(err)
	}
	fmt.Println(string(b))
}

func main() {
	var cfg config
	flag.StringVar(&cfg.root, "root", ".", "repository checkout root")
	flag.StringVar(&cfg.pimentod, "pimentod", "", "pimentod binary to drive")
	flag.StringVar(&cfg.workload, "workload", "", "workload to run: fig5-personalized, keyword-snippets or corpus-mixed-rw")
	flag.Int64Var(&cfg.seed, "seed", 1, "seed every input is generated from")
	flag.IntVar(&cfg.seconds, "seconds", 10, "measured seconds per run")
	traceFlag := flag.Int("trace", 0, "1: report the per-layer metrics of the in-process traced replay")
	all := flag.Bool("all", false, "run every workload (end-to-end metrics) and print each report")
	summarize := flag.String("summarize", "", "summarize a file of result lines (one '<workload> <json>' per line) against BENCHMARK.json bounds")
	flag.Parse()
	cfg.trace = *traceFlag == 1
	cfg.clients = runtime.NumCPU()

	if *summarize != "" {
		if err := summarizeRuns(filepath.Join(cfg.root, "BENCHMARK.json"), *summarize); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		return
	}
	if cfg.pimentod == "" {
		fmt.Fprintln(os.Stderr, "perfbench: -pimentod is required (run through perfbench/run.sh)")
		os.Exit(2)
	}
	if err := checkSources(); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	names := []string{cfg.workload}
	if *all {
		names = workloadNames
	}
	ok := true
	for _, name := range names {
		c := cfg
		c.workload = name
		res, err := run(context.Background(), c)
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", name, err)
			os.Exit(1)
		}
		res.report(name)
		ok = ok && res.Correct
	}
	if !ok {
		os.Exit(1)
	}
}

// run executes one workload: inputs, references, then the end-to-end
// or the traced measurement.
func run(ctx context.Context, cfg config) (*result, error) {
	in, err := buildInput(cfg.workload, cfg.seed)
	if err != nil {
		return nil, err
	}
	w, err := newWorld(in)
	if err != nil {
		return nil, err
	}
	start := time.Now()
	if err := w.computeRefs(ctx); err != nil {
		return nil, err
	}
	res := newResult()
	res.note("stamp %s", hostStamp(cfg))
	res.note("%d distinct requests, %d reference digests in %.2fs", len(in.requests), len(w.refs), time.Since(start).Seconds())
	dir := filepath.Join(cfg.root, ".bench_build", "run", fmt.Sprintf("%s-%d-%d", cfg.workload, cfg.seed, os.Getpid()))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	if cfg.trace {
		err = runTraced(ctx, cfg, in, w, dir, res)
	} else {
		err = runE2E(ctx, cfg, in, w, dir, res)
	}
	if err != nil {
		return nil, err
	}
	res.Correct = res.Correct && len(res.mismatches) == 0
	return res, nil
}

// setups is how many times a run starts the daemon; setup_s is their
// median.
const setups = 5

// startMeasured starts the daemon `setups` times, keeps the last one
// running, and returns it with the set-up times in seconds.
func startMeasured(ctx context.Context, cfg config, in *input, dir string) (*daemon, []float64, error) {
	var times []float64
	var d *daemon
	for i := 0; i < setups; i++ {
		var err error
		if d, err = startDaemon(ctx, cfg.pimentod, dir, in, cfg.clients); err != nil {
			return nil, nil, err
		}
		times = append(times, d.setup.Seconds())
		if i < setups-1 {
			d.stop()
		}
	}
	return d, times, nil
}

// httpPhase is the measured closed loop plus everything it reports.
type httpPhase struct {
	samples []sample
	elapsed time.Duration
	cpuMS   float64
	warm    []sample
	probe   []sample
	rssMB   float64
	dr      *driver
}

// driveHTTP warms the daemon with every distinct request, runs the
// closed loop for dur, and (on read-only workloads, when probe is set)
// the write probe.
func driveHTTP(ctx context.Context, cfg config, in *input, d *daemon, dur time.Duration, probe bool) (*httpPhase, error) {
	p := &httpPhase{dr: newDriver(d, in)}
	p.warm = p.dr.warm(ctx, cfg.clients)
	before, err := d.cpuTicks()
	if err != nil {
		return nil, err
	}
	p.samples, p.elapsed = p.dr.run(ctx, opSources(in, cfg.seed, cfg.clients), dur)
	after, err := d.cpuTicks()
	if err != nil {
		return nil, err
	}
	p.cpuMS = float64(after-before) * 1000 / userHZ
	if probe && !in.mixed {
		p.probe = p.dr.probe(ctx, in.probe, probePuts)
	}
	if p.rssMB, err = d.peakRSSMB(); err != nil {
		return nil, err
	}
	return p, nil
}

// latencies splits samples into search and PUT latencies (ms) of
// successful operations plus the failure counts.
func latencies(samples []sample) (search []float64, searchFailed int, put []float64, putFailed int) {
	for i := range samples {
		s := &samples[i]
		switch {
		case s.req >= 0 && s.ok():
			search = append(search, s.ms())
		case s.req >= 0:
			searchFailed++
		case s.ok():
			put = append(put, s.ms())
		default:
			putFailed++
		}
	}
	return
}

// runE2E is the untraced run: the end-to-end metrics.
func runE2E(ctx context.Context, cfg config, in *input, w *world, dir string, res *result) error {
	// The references are computed; the reference corpora would only add
	// to this process's garbage-collection work while it measures.
	w.states = nil
	runtime.GC()
	d, setupTimes, err := startMeasured(ctx, cfg, in, dir)
	if err != nil {
		return err
	}
	defer d.stop()
	statsBefore, err := statsz(ctx, d)
	if err != nil {
		return err
	}
	p, err := driveHTTP(ctx, cfg, in, d, time.Duration(cfg.seconds)*time.Second, true)
	if err != nil {
		return err
	}
	statsAfter, err := statsz(ctx, d)
	if err != nil {
		return err
	}
	d.stop()

	res.set("setup_s", "s", median(setupTimes), len(setupTimes))
	recordHTTP(res, in, p)
	res.note("cache (statsz delta over warm-up and run): %s", statsAfter.delta(statsBefore))
	hist := p.dr.puts.history()
	res.mismatches = append(res.mismatches, verify(w, hist, p.warm)...)
	res.mismatches = append(res.mismatches, verify(w, hist, p.samples)...)
	return nil
}

// recordHTTP turns one measured HTTP phase into the end-to-end metrics.
func recordHTTP(res *result, in *input, p *httpPhase) {
	search, sFailed, put, pFailed := latencies(p.samples)
	_, wFailed, _, _ := latencies(p.warm)
	_, _, probe, probeFailed := latencies(p.probe)
	puts, putsFailed := put, pFailed
	if !in.mixed {
		puts, putsFailed = probe, probeFailed
	}
	ops := len(search) + len(put)
	res.Attempted += len(p.samples) + len(p.warm) + len(p.probe)
	res.Failed += sFailed + pFailed + wFailed + probeFailed
	nSearch := len(search) + sFailed
	res.set("search_p50_ms", "ms", percentile(search, sFailed, 50), nSearch)
	res.set("search_p95_ms", "ms", percentile(search, sFailed, 95), nSearch)
	res.set("search_rps", "1/s", float64(len(search))/p.elapsed.Seconds(), nSearch)
	res.set("cpu_ms_per_op", "ms", p.cpuMS/float64(ops), ops)
	res.set("rss_peak_mb", "MiB", p.rssMB, 1)
	res.set("put_p50_ms", "ms", percentile(puts, putsFailed, 50), len(puts)+putsFailed)
	// put_p95_ms is printed, not gated: its run-to-run spread on the
	// reference host exceeds the largest bound a metric may have.
	res.note("put_p95_ms %.6g ms (n=%d)", finite(percentile(puts, putsFailed, 95)), len(puts)+putsFailed)
	failedFrac := 0.0
	if n := len(p.samples) + len(p.probe); n > 0 {
		failedFrac = float64(sFailed+pFailed+probeFailed) / float64(n)
	}
	res.note("failed_frac %.4g over %d measured ops (+%d warm-up requests, %d failed)", failedFrac, len(p.samples)+len(p.probe), len(p.warm), wFailed)
	hits, coal, miss := 0, 0, 0
	for i := range p.samples {
		switch p.samples[i].cache {
		case "HIT":
			hits++
		case "COALESCED":
			coal++
		case "MISS":
			miss++
		}
	}
	res.note("X-Cache over the run: %d HIT, %d COALESCED, %d MISS, %d bypass/none", hits, coal, miss, nSearch-hits-coal-miss)
}
