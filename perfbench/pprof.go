package main

import (
	"context"
	"errors"
	"fmt"
	"regexp"
	"sort"
	"strconv"
	"strings"
)

// crossCheck compares where the traced replay's CPU samples fell with
// where its spans say the time went. Samples carry the innermost span
// as a profiler label; both are folded by module (the span name up to
// its first dot; a root span is the benchmark's own glue, unlabeled
// samples are the runtime's background work). The flat package fold of
// the same profile is printed beside them.
func crossCheck(ctx context.Context, res *result, prof string, ts traceSummary) error {
	top, err := execOutput(ctx, "go", "tool", "pprof", "-top", "-nodecount=100000", prof)
	if err != nil {
		return fmt.Errorf("go tool pprof -top: %w", err)
	}
	tags, err := execOutput(ctx, "go", "tool", "pprof", "-tags", prof)
	if err != nil {
		return fmt.Errorf("go tool pprof -tags: %w", err)
	}
	flat, totalS, err := foldTop(top)
	if err != nil {
		return err
	}
	labeled, err := foldTags(tags, totalS)
	if err != nil {
		return err
	}
	spans := ts.moduleShares()
	seen := map[string]bool{}
	var mods []string
	for _, m := range []map[string]float64{labeled, spans, flat} {
		for k := range m {
			if !seen[k] {
				seen[k] = true
				mods = append(mods, k)
			}
		}
	}
	sort.Strings(mods)
	res.note("cpu vs spans: %-10s %9s %9s %9s", "module", "cpu@span", "span self", "cpu@pkg")
	for _, m := range mods {
		res.note("cpu vs spans: %-10s %9.3f %9.3f %9.3f", m, labeled[m], spans[m], flat[m])
	}
	return nil
}

// foldTop parses `pprof -top` text: the total sampled seconds from the
// header, then rows of "flat flat% sum% cum cum% function", whose flat
// shares it folds by package into modules (see module).
func foldTop(out string) (map[string]float64, float64, error) {
	shares := map[string]float64{}
	total := 0.0
	rows := false
	for _, line := range strings.Split(out, "\n") {
		if _, after, ok := strings.Cut(line, "Total samples = "); ok {
			v, err := parseDuration(strings.Fields(after)[0])
			if err != nil {
				return nil, 0, err
			}
			total = v
		}
		f := strings.Fields(line)
		if len(f) >= 5 && f[0] == "flat" && f[1] == "flat%" {
			rows = true
			continue
		}
		if !rows || len(f) < 6 {
			continue
		}
		pct, err := strconv.ParseFloat(strings.TrimSuffix(f[1], "%"), 64)
		if err != nil {
			return nil, 0, fmt.Errorf("pprof row %q: %w", line, err)
		}
		shares[module(strings.Join(f[5:], " "))] += pct / 100
	}
	if !rows || total == 0 {
		return nil, 0, errors.New("no samples in pprof output")
	}
	return shares, total, nil
}

// tagRow is one row of `pprof -tags` output: "<duration> (<pct>%): <value>".
var tagRow = regexp.MustCompile(`^\s*(\S+)\s+\(\s*[0-9.]+%\):\s+(\S+)\s*$`)

// foldTags parses `pprof -tags` text for the span label. Shares are of
// all samples, so the unlabeled remainder is reported as the runtime's.
func foldTags(out string, total float64) (map[string]float64, error) {
	shares := map[string]float64{}
	in := false
	labeled := 0.0
	for _, line := range strings.Split(out, "\n") {
		f := strings.Fields(line)
		if len(f) > 0 && strings.HasSuffix(f[0], ":") && !strings.HasSuffix(line, "%):") {
			in = f[0] == "span:" // a label key's header line
			continue
		}
		m := tagRow.FindStringSubmatch(line)
		if !in || m == nil {
			continue
		}
		v, err := parseDuration(m[1])
		if err != nil {
			return nil, err
		}
		mod, _, found := strings.Cut(m[2], ".")
		if !found {
			mod = "bench" // a root span: the benchmark's own glue
		}
		shares[mod] += v / total
		labeled += v
	}
	shares["runtime"] += (total - labeled) / total
	return shares, nil
}

// parseDuration reads pprof's sample durations ("410.00ms", "1.2s").
func parseDuration(s string) (float64, error) {
	units := []struct {
		suffix string
		scale  float64
	}{{"mins", 60}, {"hrs", 3600}, {"ms", 1e-3}, {"us", 1e-6}, {"ns", 1e-9}, {"s", 1}}
	for _, u := range units {
		if v, ok := strings.CutSuffix(s, u.suffix); ok {
			f, err := strconv.ParseFloat(v, 64)
			return f * u.scale, err
		}
	}
	return 0, fmt.Errorf("bad pprof duration %q", s)
}

// module maps a profiled function name to the module its flat time is
// folded into: repro/internal/<m> is <m>, the benchmark's package is
// "bench", runtime internals are "runtime", the rest is "stdlib".
func module(fn string) string {
	pkg := fn
	if i := strings.LastIndexByte(pkg, '/'); i >= 0 {
		if j := strings.IndexByte(pkg[i:], '.'); j >= 0 {
			pkg = pkg[:i+j]
		}
	} else if j := strings.IndexByte(pkg, '.'); j >= 0 {
		pkg = pkg[:j]
	}
	switch {
	case strings.HasPrefix(pkg, "repro/internal/"):
		m, _, _ := strings.Cut(strings.TrimPrefix(pkg, "repro/internal/"), "/")
		return m
	case pkg == "main":
		return "bench"
	case pkg == "runtime" || strings.HasPrefix(pkg, "runtime/internal") || strings.HasPrefix(pkg, "internal/runtime"):
		return "runtime"
	}
	return "stdlib"
}
