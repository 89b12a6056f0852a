package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"time"
)

// runTraced is the traced run: a short HTTP phase (for search_p50_ms),
// then the in-process replay — a traced warm pass, an untraced phase,
// a traced phase under the CPU profiler — and the timing-overhead
// probe. It reports the per-layer metrics.
func runTraced(ctx context.Context, cfg config, in *input, w *world, dir string, res *result) error {
	total := time.Duration(cfg.seconds) * time.Second
	d, err := startDaemon(ctx, cfg.pimentod, dir, in, cfg.clients)
	if err != nil {
		return err
	}
	defer d.stop()
	hp, err := driveHTTP(ctx, cfg, in, d, total*3/10, false)
	if err != nil {
		return err
	}
	d.stop() // the replay must not share the CPUs with an idle daemon's GC
	hist := hp.dr.puts.history()
	res.mismatches = append(res.mismatches, verify(w, hist, hp.warm)...)
	res.mismatches = append(res.mismatches, verify(w, hist, hp.samples)...)
	hs, hFailed, _, _ := latencies(hp.samples)
	httpP50 := percentile(hs, hFailed, 50)
	count(res, hp.warm)
	count(res, hp.samples)

	vetUS, vetN, err := vetCold(w)
	if err != nil {
		return err
	}
	rp, err := newReplica(ctx, in, w)
	if err != nil {
		return err
	}
	// The replica holds its own index of every document; the reference
	// corpora would only add to the collector's work during the replay.
	w.states = nil
	runtime.GC()
	t := newTracer()
	warm := eachOnce(len(in.requests), cfg.clients, func(i int) sample { return rp.do(ctx, t, op{req: i}) })

	// Untraced replay: the baseline for tracing overhead and the
	// allocation counts.
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	untraced, _ := closedLoop(opSources(in, cfg.seed, cfg.clients), total*3/10, func(o op) sample { return rp.do(ctx, nil, o) })
	runtime.ReadMemStats(&m1)

	// Traced replay under the CPU profiler.
	prof := filepath.Join(dir, "cpu.pprof")
	pf, err := os.Create(prof)
	if err != nil {
		return err
	}
	if err := pprof.StartCPUProfile(pf); err != nil {
		pf.Close()
		return err
	}
	cs0, as0 := rp.cache.Stats(), rp.ac.Stats()
	tries0, grants0 := rp.budget.tries.Load(), rp.budget.grants.Load()
	traced, _ := closedLoop(opSources(in, cfg.seed, cfg.clients), total*3/10, func(o op) sample { return rp.do(ctx, t, o) })
	cs1, as1 := rp.cache.Stats(), rp.ac.Stats()
	tries1, grants1 := rp.budget.tries.Load(), rp.budget.grants.Load()
	pprof.StopCPUProfile()
	if err := pf.Close(); err != nil {
		return err
	}

	overhead, overheadN, err := rp.timingOverhead(ctx, w, total/10)
	if err != nil {
		return err
	}

	rhist := rp.puts.history()
	for _, ss := range [][]sample{warm, untraced, traced} {
		res.mismatches = append(res.mismatches, verify(w, rhist, ss)...)
		count(res, ss)
	}

	traceDir := filepath.Join(cfg.root, ".bench_build", "traces")
	if err := os.MkdirAll(traceDir, 0o755); err != nil {
		return err
	}
	tracePath := filepath.Join(traceDir, fmt.Sprintf("%s-seed%d.jsonl", cfg.workload, cfg.seed))
	if err := t.write(tracePath); err != nil {
		return err
	}
	res.note("spans written to %s", tracePath)

	ts := summarize(t.ops)
	untracedLat, uFailed, _, _ := latencies(untraced)
	tracedLat, tFailed, _, _ := latencies(traced)
	uP50 := percentile(untracedLat, uFailed, 50)
	tP50 := percentile(tracedLat, tFailed, 50)
	nOps := len(untraced)

	spanMetric := func(metricName, spanName string) {
		v, n := ts.meanUS(spanName)
		res.set(metricName, "us", v, n)
	}
	spanMetric("server.decode_us", "server.decode")
	spanMetric("tpq.parse_us", "tpq.parse")
	spanMetric("profile.parse_us", "profile.parse")
	spanMetric("registry.get_us", "registry.get")
	spanMetric("server.cache_key_us", "server.cache_key")
	spanMetric("sched.admit_wait_us", "sched.admit")
	spanMetric("engine.analysis_us", "engine.analysis")
	spanMetric("plan.build_us", "plan.build")
	spanMetric("plan.build_cold_us", "plan.build_cold")
	spanMetric("algebra.execute_us", "algebra.execute")
	spanMetric("engine.materialize_us", "engine.materialize")
	spanMetric("server.marshal_us", "server.marshal")
	spanMetric("corpus.fanout_us", "corpus.fanout")

	lookups := (cs1.Hits - cs0.Hits) + (cs1.Misses - cs0.Misses) + (cs1.Coalesced - cs0.Coalesced)
	searches := 0
	for i := range traced {
		if traced[i].req >= 0 {
			searches++
		}
	}
	res.set("server.cache_hit_frac", "ratio", ratio(float64(cs1.Hits-cs0.Hits), float64(lookups)), int(lookups))
	res.set("server.cache_coalesced_frac", "ratio", ratio(float64(cs1.Coalesced-cs0.Coalesced), float64(lookups)), int(lookups))
	res.set("server.cache_evict_per_op", "count", ratio(float64(cs1.Evictions-cs0.Evictions), float64(searches)), searches)
	aLookups := (as1.Hits - as0.Hits) + (as1.Misses - as0.Misses) + (as1.Coalesced - as0.Coalesced)
	res.set("engine.analysis_hit_frac", "ratio", ratio(float64(as1.Hits-as0.Hits), float64(aLookups)), int(aLookups))
	res.set("sched.budget_grant_frac", "ratio", ratio(float64(grants1-grants0), float64(tries1-tries0)), int(tries1-tries0))
	res.set("analysis.vet_cold_us", "us", vetUS, vetN)
	res.set("algebra.timing_overhead_frac", "ratio", overhead, overheadN)

	a := &rp.acc
	res.set("server.invalidated_per_put", "count", ratio(float64(a.invalidated), float64(a.puts)), a.puts)
	res.set("plan.parallelism", "count", ratio(float64(a.par), float64(a.execs)), a.execs)
	res.set("plan.workers", "count", ratio(float64(a.workers), float64(a.execs)), a.execs)
	res.set("plan.twigjoin_frac", "ratio", ratio(float64(a.twig), float64(a.execs)), a.execs)
	res.set("algebra.candidates", "count", ratio(float64(a.candidates), float64(a.execs)), a.execs)
	res.set("algebra.pruned_frac", "ratio", ratio(float64(a.pruned), float64(a.candidates)), a.execs)
	for _, k := range opKinds {
		res.set("algebra.self_us."+k, "us", ratio(float64(a.selfNS[k])/1e3, float64(a.execs)), a.execs)
	}
	res.set("twig.join_candidates", "count", ratio(float64(a.joinEmitted), float64(a.joins)), a.joins)
	res.set("engine.snippet_source_bytes", "bytes", ratio(float64(a.srcBytes), float64(a.answers)), a.answers)
	res.set("server.body_bytes", "bytes", ratio(float64(a.bodyBytes), float64(a.bodies)), a.bodies)
	res.set("engine.alloc_bytes_per_op", "bytes", ratio(float64(m1.TotalAlloc-m0.TotalAlloc), float64(nOps)), nOps)
	res.set("engine.allocs_per_op", "count", ratio(float64(m1.Mallocs-m0.Mallocs), float64(nOps)), nOps)

	parseNS, parseBytes := w.parseNS+a.putParseNS, w.parseBytes+a.putParseBytes
	res.set("xmldoc.parse_ms_per_mb", "ms/MB", float64(parseNS)/1e6/(float64(parseBytes)/1e6), len(w.prepareNS)+a.puts)
	prepares := append(append([]int64(nil), w.prepareNS...), a.putPrepareNS...)
	res.set("corpus.prepare_ms", "ms", meanNS(prepares)/1e6, len(prepares))
	commits := a.putCommitNS
	if len(commits) == 0 {
		commits = w.commitNS
	}
	res.set("corpus.commit_us", "us", meanNS(commits)/1e3, len(commits))

	res.set("trace.coverage_frac", "ratio", ts.coverage(), ts.roots)
	res.set("trace.overhead_frac", "ratio", tP50/uP50-1, len(tracedLat))
	res.set("trace.http_share", "ratio", 1-uP50/httpP50, len(hs))

	res.note("replay p50 %.4g ms untraced, %.4g ms traced; HTTP p50 %.4g ms", uP50, tP50, httpP50)
	res.note("materialize share of replayed request time %.3f; root time under named spans %.3f",
		ts.share("engine.materialize"), ts.coverage())
	return crossCheck(ctx, res, prof, ts)
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func meanNS(v []int64) float64 {
	if len(v) == 0 {
		return 0
	}
	var s int64
	for _, x := range v {
		s += x
	}
	return float64(s) / float64(len(v))
}

// count adds a phase's operations to the run's attempted/failed totals.
func count(res *result, ss []sample) {
	for i := range ss {
		res.Attempted++
		if !ss[i].ok() {
			res.Failed++
		}
	}
}
