package main

import (
	"context"
	"encoding/json"
	"os"
	"runtime/pprof"
	"sort"
	"strings"
	"sync"
	"time"
)

// span is one timed call from the benchmark into a layer. Spans of one
// operation share its request ID; parent indexes the enclosing span in
// the same operation (-1 for the root). Times are nanoseconds since the
// tracer's epoch.
type span struct {
	Name   string `json:"name"`
	Req    int64  `json:"req"`
	Parent int    `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps every finished operation's spans in memory; they are
// written out once, when the run ends.
type tracer struct {
	epoch time.Time
	mu    sync.Mutex
	ops   [][]span
	next  int64
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// opTrace records the spans of one operation on one goroutine. A nil
// *opTrace records nothing, which is the untraced replay.
type opTrace struct {
	t     *tracer
	spans []span
	stack []int
}

// spanLabels caches one profiler label context per span name: while a
// span is innermost, the goroutine carries pprof label span=<name>, so
// CPU samples taken during a traced run fold onto the same names.
var spanLabels sync.Map

func labelSpan(name string) {
	c, ok := spanLabels.Load(name)
	if !ok {
		c, _ = spanLabels.LoadOrStore(name, pprof.WithLabels(context.Background(), pprof.Labels("span", name)))
	}
	pprof.SetGoroutineLabels(c.(context.Context))
}

// begin starts an operation: its root span is open until finish.
func (t *tracer) begin(name string) *opTrace {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	t.next++
	id := t.next
	t.mu.Unlock()
	o := &opTrace{t: t}
	o.spans = append(o.spans, span{Name: name, Req: id, Parent: -1, Start: int64(time.Since(t.epoch))})
	o.stack = append(o.stack, 0)
	labelSpan(name)
	return o
}

// start opens a child of the innermost open span.
func (o *opTrace) start(name string) {
	if o == nil {
		return
	}
	o.spans = append(o.spans, span{Name: name, Req: o.spans[0].Req, Parent: o.stack[len(o.stack)-1], Start: int64(time.Since(o.t.epoch))})
	o.stack = append(o.stack, len(o.spans)-1)
	labelSpan(name)
}

// end closes the innermost open span.
func (o *opTrace) end() {
	if o == nil {
		return
	}
	i := o.stack[len(o.stack)-1]
	o.stack = o.stack[:len(o.stack)-1]
	o.spans[i].End = int64(time.Since(o.t.epoch))
	if len(o.stack) > 0 {
		labelSpan(o.spans[o.stack[len(o.stack)-1]].Name)
	} else {
		pprof.SetGoroutineLabels(context.Background())
	}
}

// finish closes the root and hands the operation's spans to the tracer.
func (o *opTrace) finish() {
	if o == nil {
		return
	}
	for len(o.stack) > 0 {
		o.end()
	}
	o.t.mu.Lock()
	o.t.ops = append(o.t.ops, o.spans)
	o.t.mu.Unlock()
}

// selfTimes returns each span's duration minus the part of its
// interval covered by its children (children may overlap each other;
// covered time is their union, clipped to the parent).
func selfTimes(spans []span) []int64 {
	children := make([][]int, len(spans))
	for i, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	out := make([]int64, len(spans))
	for i, s := range spans {
		type iv struct{ a, b int64 }
		var ivs []iv
		for _, c := range children[i] {
			a, b := max(spans[c].Start, s.Start), min(spans[c].End, s.End)
			if b > a {
				ivs = append(ivs, iv{a, b})
			}
		}
		sort.Slice(ivs, func(x, y int) bool { return ivs[x].a < ivs[y].a })
		var covered, curA, curB int64
		open := false
		for _, v := range ivs {
			switch {
			case !open:
				curA, curB, open = v.a, v.b, true
			case v.a <= curB:
				curB = max(curB, v.b)
			default:
				covered += curB - curA
				curA, curB = v.a, v.b
			}
		}
		if open {
			covered += curB - curA
		}
		out[i] = (s.End - s.Start) - covered
	}
	return out
}

// spanSummary aggregates one span name over a set of operations.
type spanSummary struct {
	count int
	total int64 // summed duration, ns
	self  int64 // summed self time, ns
}

// traceSummary folds recorded operations into per-name totals plus
// the root durations and their coverage by named child spans.
type traceSummary struct {
	byName    map[string]*spanSummary
	rootTotal int64 // summed root durations, ns
	rootSelf  int64 // summed root self time (time under no child span), ns
	roots     int
}

func summarize(ops [][]span) traceSummary {
	ts := traceSummary{byName: map[string]*spanSummary{}}
	for _, spans := range ops {
		self := selfTimes(spans)
		for i, s := range spans {
			if s.Parent < 0 {
				ts.roots++
				ts.rootTotal += s.End - s.Start
				ts.rootSelf += self[i]
				continue
			}
			sm := ts.byName[s.Name]
			if sm == nil {
				sm = &spanSummary{}
				ts.byName[s.Name] = sm
			}
			sm.count++
			sm.total += s.End - s.Start
			sm.self += self[i]
		}
	}
	return ts
}

// coverage is the share of root time spent under named child spans.
func (ts traceSummary) coverage() float64 {
	if ts.rootTotal == 0 {
		return 0
	}
	return 1 - float64(ts.rootSelf)/float64(ts.rootTotal)
}

// meanUS is a span name's mean duration per call, in microseconds.
func (ts traceSummary) meanUS(name string) (float64, int) {
	sm := ts.byName[name]
	if sm == nil || sm.count == 0 {
		return 0, 0
	}
	return float64(sm.total) / float64(sm.count) / 1e3, sm.count
}

// share is a span name's self time as a share of all root time.
func (ts traceSummary) share(name string) float64 {
	sm := ts.byName[name]
	if sm == nil || ts.rootTotal == 0 {
		return 0
	}
	return float64(sm.self) / float64(ts.rootTotal)
}

// moduleShares folds span self time by module (the span name up to its
// first dot); time under no child span is the benchmark's own glue.
func (ts traceSummary) moduleShares() map[string]float64 {
	out := map[string]float64{}
	if ts.rootTotal == 0 {
		return out
	}
	for name, sm := range ts.byName {
		mod, _, _ := strings.Cut(name, ".")
		out[mod] += float64(sm.self) / float64(ts.rootTotal)
	}
	out["bench"] += float64(ts.rootSelf) / float64(ts.rootTotal)
	return out
}

// write saves every recorded span as JSON.
func (t *tracer) write(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	for _, spans := range t.ops {
		if err := enc.Encode(spans); err != nil {
			f.Close()
			return err
		}
	}
	return f.Close()
}
