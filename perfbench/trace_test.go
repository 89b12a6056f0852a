package main

import (
	"math"
	"testing"
)

func TestSelfTimeNestedSpans(t *testing.T) {
	// root [0,100) > a [10,40) > a1 [15,25); root > b [50,90).
	spans := []span{
		{Name: "search", Parent: -1, Start: 0, End: 100},
		{Name: "x.a", Parent: 0, Start: 10, End: 40},
		{Name: "x.a1", Parent: 1, Start: 15, End: 25},
		{Name: "y.b", Parent: 0, Start: 50, End: 90},
	}
	got := selfTimes(spans)
	want := []int64{100 - 30 - 40, 30 - 10, 10, 40}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("self[%s] = %d, want %d", spans[i].Name, got[i], want[i])
		}
	}
}

func TestSelfTimeOverlappingAndOverhangingChildren(t *testing.T) {
	// Children overlap each other ([10,50) and [30,60)) and one overhangs
	// the parent's end: covered time is their union clipped to [0,80).
	spans := []span{
		{Name: "root", Parent: -1, Start: 0, End: 80},
		{Name: "c1", Parent: 0, Start: 10, End: 50},
		{Name: "c2", Parent: 0, Start: 30, End: 60},
		{Name: "c3", Parent: 0, Start: 70, End: 95},
	}
	if got := selfTimes(spans)[0]; got != 80-50-10 {
		t.Errorf("root self = %d, want %d", got, 80-50-10)
	}
}

func TestSummarizeCoverageAndShares(t *testing.T) {
	ops := [][]span{
		{
			{Name: "search", Parent: -1, Start: 0, End: 100},
			{Name: "algebra.execute", Parent: 0, Start: 0, End: 60},
			{Name: "engine.materialize", Parent: 0, Start: 60, End: 90},
		},
		{
			{Name: "search", Parent: -1, Start: 200, End: 300},
			{Name: "algebra.execute", Parent: 0, Start: 200, End: 300},
		},
	}
	ts := summarize(ops)
	if got, want := ts.coverage(), 1-10.0/200; math.Abs(got-want) > 1e-12 {
		t.Errorf("coverage = %v, want %v", got, want)
	}
	if us, n := ts.meanUS("algebra.execute"); n != 2 || math.Abs(us-0.08) > 1e-12 {
		t.Errorf("meanUS(algebra.execute) = %v over %d, want 0.08 over 2", us, n)
	}
	if got := ts.share("engine.materialize"); math.Abs(got-30.0/200) > 1e-12 {
		t.Errorf("materialize share = %v, want 0.15", got)
	}
	mods := ts.moduleShares()
	if math.Abs(mods["algebra"]-0.8) > 1e-12 || math.Abs(mods["bench"]-0.05) > 1e-12 {
		t.Errorf("module shares = %v", mods)
	}
}

func TestTracerRecordsParentsAndRequestIDs(t *testing.T) {
	tr := newTracer()
	o := tr.begin("search")
	o.start("server.decode")
	o.end()
	o.start("server.cache")
	o.start("algebra.execute")
	o.end()
	o.end()
	o.finish()
	tr.begin("put").finish()
	if len(tr.ops) != 2 {
		t.Fatalf("ops = %d, want 2", len(tr.ops))
	}
	s := tr.ops[0]
	wantParents := []int{-1, 0, 0, 2}
	for i, p := range wantParents {
		if s[i].Parent != p || s[i].Req != 1 || s[i].End < s[i].Start {
			t.Errorf("span %d = %+v, want parent %d, req 1", i, s[i], p)
		}
	}
	if tr.ops[1][0].Req != 2 {
		t.Errorf("second op req = %d, want 2", tr.ops[1][0].Req)
	}
	var nilTrace *opTrace
	nilTrace.start("x") // the untraced replay: all no-ops
	nilTrace.end()
	nilTrace.finish()
}
