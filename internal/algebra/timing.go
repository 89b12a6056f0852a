package algebra

import "time"

// timedOp wraps an operator and accumulates the wall-clock time spent
// inside its Open and Next calls into OpStats.WallNS. The measurement
// is *inclusive* of the wrapped operator's upstream chain — Next pulls
// recurse — so per-operator self time falls out as a subtraction
// between adjacent chain positions, which the consumers (slow-query
// log, /metrics, the Fig. 6/7 harnesses) do at render time.
//
// The wrapper costs two clock reads per Next call, so it is opt-in:
// plan compilation inserts it only when Options.Timing is set (the
// serving layer sets it on one fresh execution in 64; library callers
// and benchmarks default to the bare chain).
type timedOp struct {
	inner Operator
	wall  int64
}

// WithTiming wraps op so its Stats() carry wall time. Wrapping is
// transparent: the returned operator delegates Open/Next and reports
// the inner operator's counters with WallNS filled in.
func WithTiming(op Operator) Operator {
	return &timedOp{inner: op}
}

func (t *timedOp) Open() {
	start := time.Now()
	t.inner.Open()
	t.wall += int64(time.Since(start))
}

func (t *timedOp) Next() (Answer, bool) {
	start := time.Now()
	a, ok := t.inner.Next()
	t.wall += int64(time.Since(start))
	return a, ok
}

func (t *timedOp) Stats() OpStats {
	s := t.inner.Stats()
	s.WallNS = t.wall
	return s
}

// Unwrap returns the wrapped operator (plan compilation needs the
// concrete operator back for final-prune bookkeeping).
func (t *timedOp) Unwrap() Operator { return t.inner }
