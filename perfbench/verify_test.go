package main

import (
	"math/rand"
	"reflect"
	"testing"
	"time"

	"repro/internal/server"
)

func TestBodyDigestIgnoresLayoutAndVolatileFields(t *testing.T) {
	a := []byte(`{"results":[{"doc":"d","node":7,"path":"/a/b","s":0.5,"k":1,"snippet":"x y"}],"k":10,"exec_us":812,"trace":[{"name":"execute","start_us":1,"dur_us":800}],"elapsed_us":900,"cache_age_ms":0}`)
	// Same answers: other field order, spacing, volatile timings, a
	// cache hit's age, and no trace.
	b := []byte(`{ "k": 10, "results": [ {"snippet":"x y","k":1.0,"s":5e-1,"path":"/a/b","node":7,"doc":"d"} ],
		"exec_us": 3, "elapsed_us": 41, "cache_age_ms": 1200 }`)
	da, err := bodyDigest(a)
	if err != nil {
		t.Fatal(err)
	}
	db, err := bodyDigest(b)
	if err != nil {
		t.Fatal(err)
	}
	if da != db {
		t.Errorf("digests differ for the same answers: %s vs %s", da, db)
	}
	for name, other := range map[string]string{
		"score":   `{"results":[{"doc":"d","node":7,"path":"/a/b","s":0.5000001,"k":1,"snippet":"x y"}]}`,
		"snippet": `{"results":[{"doc":"d","node":7,"path":"/a/b","s":0.5,"k":1,"snippet":"x  y"}]}`,
		"node":    `{"results":[{"doc":"d","node":8,"path":"/a/b","s":0.5,"k":1,"snippet":"x y"}]}`,
		"empty":   `{"results":[]}`,
	} {
		d, err := bodyDigest([]byte(other))
		if err != nil {
			t.Fatal(err)
		}
		if d == da {
			t.Errorf("%s change left the digest unchanged", name)
		}
	}
	// Order is part of the answer.
	two := `{"results":[{"doc":"d","node":1,"s":2},{"doc":"d","node":2,"s":1}]}`
	swapped := `{"results":[{"doc":"d","node":2,"s":1},{"doc":"d","node":1,"s":2}]}`
	d1, _ := bodyDigest([]byte(two))
	d2, _ := bodyDigest([]byte(swapped))
	if d1 == d2 {
		t.Error("reordered answers share a digest")
	}
	// A missing results array and an empty one are the same answer.
	d3, _ := bodyDigest([]byte(`{"k":10}`))
	d4, _ := bodyDigest([]byte(`{"results":[]}`))
	if d3 != d4 {
		t.Error("absent and empty results digest differently")
	}
}

func TestBodyDigestRejectsDegradedAndGarbage(t *testing.T) {
	if _, err := bodyDigest([]byte(`{"results":[],"degraded":true,"timed_out_shards":[1]}`)); err == nil {
		t.Error("degraded fan-out accepted")
	}
	if _, err := bodyDigest([]byte(`not json`)); err == nil {
		t.Error("garbage accepted")
	}
}

func TestReachableStates(t *testing.T) {
	t0 := time.Unix(1000, 0)
	at := func(ms int) time.Time { return t0.Add(time.Duration(ms) * time.Millisecond) }
	// Hot doc 0: PUT to version 1 during [100,150), back to 0 during
	// [300,340). Hot doc 1: never PUT.
	hist := [][]putEvent{
		{{to: 1, start: at(100), end: at(150)}, {to: 0, start: at(300), end: at(340)}},
		nil,
	}
	cases := []struct {
		from, to int
		want     []int
	}{
		{0, 50, []int{0}},       // before any PUT
		{120, 130, []int{0, 1}}, // inside the first PUT: either version
		{160, 290, []int{1}},    // between the PUTs
		{140, 320, []int{0, 1}}, // spans both PUTs
		{350, 400, []int{0}},    // after the second PUT
	}
	for _, c := range cases {
		if got := reachable(hist, at(c.from), at(c.to)); !reflect.DeepEqual(got, c.want) {
			t.Errorf("reachable[%d,%d] = %v, want %v", c.from, c.to, got, c.want)
		}
	}
	// Two hot documents in flux at once: every combination.
	both := [][]putEvent{
		{{to: 1, start: at(100), end: at(150)}},
		{{to: 1, start: at(110), end: at(140)}},
	}
	if got := reachable(both, at(120), at(130)); !reflect.DeepEqual(got, []int{0, 1, 2, 3}) {
		t.Errorf("overlapping PUTs of two docs: %v, want [0 1 2 3]", got)
	}
	if got := reachable(both, at(200), at(210)); !reflect.DeepEqual(got, []int{3}) {
		t.Errorf("after both PUTs: %v, want [3]", got)
	}
}

func TestCheckUsesOnlyTheVersionsARequestDependsOn(t *testing.T) {
	in := &input{
		docs: []docSpec{{name: "a"}, {name: "b"}, {name: "c"}},
		hot:  []int{0, 1},
		requests: []server.SearchRequest{
			{Doc: "c"}, // cold document
			{Doc: "b"}, // hot document 1
			{Doc: "*"}, // fan-out: every hot version
		},
	}
	w := &world{in: in, refs: map[refKey]string{
		{0, 0}: "c0",
		{1, 0}: "b0", {1, 2}: "b1",
		{2, 0}: "f0", {2, 1}: "f1", {2, 2}: "f2", {2, 3}: "f3",
	}}
	if !w.check(0, "c0", []int{3}) {
		t.Error("cold document's answer must match whatever the hot versions are")
	}
	if !w.check(1, "b1", []int{3}) || w.check(1, "b1", []int{1}) {
		t.Error("hot document's answer must follow its own version only")
	}
	if !w.check(2, "f1", []int{0, 1}) || w.check(2, "f2", []int{0, 1}) {
		t.Error("fan-out must match one of the reachable states")
	}
}

func TestRankOrderDealsGroupsRoundRobin(t *testing.T) {
	var reqs []server.SearchRequest
	for i := 0; i < 9; i++ {
		reqs = append(reqs, server.SearchRequest{Doc: []string{"a", "b", "c"}[i%3], K: i})
	}
	reqs = append(reqs, server.SearchRequest{Doc: "d", K: 100})
	byDoc := func(r *server.SearchRequest) string { return r.Doc }
	o1 := rankOrder(rand.New(rand.NewSource(1)), reqs, byDoc)
	o2 := rankOrder(rand.New(rand.NewSource(1)), reqs, byDoc)
	if !reflect.DeepEqual(o1, o2) {
		t.Fatal("same seed, different rank order")
	}
	seen := map[int]bool{}
	for _, i := range o1 {
		seen[i] = true
	}
	if len(o1) != len(reqs) || len(seen) != len(reqs) {
		t.Fatalf("rank order %v is not a permutation", o1)
	}
	// The first four ranks hold one request of each document.
	docs := map[string]bool{}
	for _, i := range o1[:4] {
		docs[reqs[i].Doc] = true
	}
	if len(docs) != 4 {
		t.Errorf("top ranks %v do not cover every document", o1[:4])
	}
}
