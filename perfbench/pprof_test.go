package main

import (
	"math"
	"testing"
)

const topOut = `File: perfbench
Type: cpu
Duration: 3.01s, Total samples = 2s (66.45%)
Showing nodes accounting for 2s, 100% of 2s total
      flat  flat%   sum%        cum   cum%
     0.80s 40.00% 40.00%      0.90s 45.00%  repro/internal/algebra.(*ScanOp).Next
     0.50s 25.00% 65.00%      0.50s 25.00%  runtime.mallocgc
     0.30s 15.00% 80.00%      0.30s 15.00%  encoding/json.(*decodeState).object
     0.20s 10.00% 90.00%      1.00s 50.00%  main.(*replica).search
     0.20s 10.00%   100%      0.20s 10.00%  repro/internal/index.(*Index).TF (inline)
`

func TestFoldTop(t *testing.T) {
	shares, total, err := foldTop(topOut)
	if err != nil {
		t.Fatal(err)
	}
	if total != 2 {
		t.Errorf("total = %v, want 2", total)
	}
	want := map[string]float64{"algebra": 0.4, "runtime": 0.25, "stdlib": 0.15, "bench": 0.1, "index": 0.1}
	for m, v := range want {
		if math.Abs(shares[m]-v) > 1e-9 {
			t.Errorf("share[%s] = %v, want %v", m, shares[m], v)
		}
	}
	if _, _, err := foldTop("no profile here"); err == nil {
		t.Error("empty pprof output accepted")
	}
}

func TestFoldTags(t *testing.T) {
	out := ` span: Total 1.5s
         1s (66.67%): algebra.execute
      400ms (26.67%): search
      100ms ( 6.67%): plan.build

 other: Total 10ms
       10ms (  100%): algebra.execute
`
	shares, err := foldTags(out, 2)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]float64{"algebra": 0.5, "bench": 0.2, "plan": 0.05, "runtime": 0.25}
	for m, v := range want {
		if math.Abs(shares[m]-v) > 1e-9 {
			t.Errorf("share[%s] = %v, want %v", m, shares[m], v)
		}
	}
}

func TestModule(t *testing.T) {
	for fn, want := range map[string]string{
		"repro/internal/algebra.(*ScanOp).Next":          "algebra",
		"repro/internal/twig.(*Evaluator).Distinguished": "twig",
		"main.snippet":                            "bench",
		"runtime.gcBgMarkWorker":                  "runtime",
		"internal/runtime/maps.(*Map).getWithKey": "runtime",
		"strings.Fields":                          "stdlib",
		"encoding/json.Marshal":                   "stdlib",
	} {
		if got := module(fn); got != want {
			t.Errorf("module(%q) = %q, want %q", fn, got, want)
		}
	}
}

func TestParseDuration(t *testing.T) {
	for s, want := range map[string]float64{"410.00ms": 0.41, "1.2s": 1.2, "2mins": 120, "30us": 30e-6} {
		got, err := parseDuration(s)
		if err != nil || math.Abs(got-want) > 1e-12 {
			t.Errorf("parseDuration(%q) = %v, %v; want %v", s, got, err, want)
		}
	}
}
