// Asynchronous slow-query log.
//
// Requests slower than Config.SlowQueryThreshold are handed to a
// single logging goroutine through a bounded channel; the request path
// never blocks on the log sink. When the channel is full the entry is
// dropped and counted (pimento_slow_queries_dropped_total) — a slow
// log that backpressures the server would be worse than no log.
//
// Every line carries each operator's in/out/pruned counts. Per-operator
// wall= appears only on lines from timed executions: the server times
// one fresh single-document execution in 64 (see timingStride), so most
// lines carry counts alone.
package server

import (
	"fmt"
	"log"
	"strings"
	"sync"
	"time"

	"repro/internal/algebra"
	"repro/internal/metrics"
)

// slowQuery is one log entry: enough to reproduce and diagnose the
// request without holding references into the response.
type slowQuery struct {
	Doc     string
	Query   string
	Elapsed time.Duration
	Plan    string
	Stats   []algebra.OpStats
}

type slowQueryLogger struct {
	threshold time.Duration
	logf      func(format string, args ...any)
	ch        chan slowQuery
	wg        sync.WaitGroup
	closeOnce sync.Once

	// mu guards the channel against close-during-send: observe holds
	// the read lock while enqueueing, close takes the write lock before
	// closing. Only threshold-crossing requests ever touch the lock.
	mu     sync.RWMutex
	closed bool

	total   *metrics.Counter
	dropped *metrics.Counter
}

// newSlowQueryLogger starts the logging goroutine. logf defaults to
// the standard logger; tests inject their own to capture output and to
// prove the goroutine exits on close.
func newSlowQueryLogger(threshold time.Duration, logf func(string, ...any), total, dropped *metrics.Counter) *slowQueryLogger {
	if logf == nil {
		logf = log.Printf
	}
	l := &slowQueryLogger{
		threshold: threshold,
		logf:      logf,
		ch:        make(chan slowQuery, 64),
		total:     total,
		dropped:   dropped,
	}
	l.wg.Add(1)
	//pimento:allow budgetedgo construction-time singleton: one drain goroutine for the logger's lifetime, not per-request fan-out
	go l.run()
	return l
}

func (l *slowQueryLogger) run() {
	defer l.wg.Done()
	for q := range l.ch {
		l.logf("slow query (%s): doc=%q query=%q plan=%q ops=[%s]",
			q.Elapsed.Round(time.Microsecond), q.Doc, q.Query, q.Plan, formatOpStats(q.Stats))
	}
}

// observe submits a request for logging if it crossed the threshold.
// Non-blocking: a full channel drops the entry and bumps the counter.
func (l *slowQueryLogger) observe(q slowQuery) {
	if q.Elapsed < l.threshold {
		return
	}
	l.total.Inc()
	l.mu.RLock()
	defer l.mu.RUnlock()
	if l.closed {
		l.dropped.Inc()
		return
	}
	select {
	case l.ch <- q:
	default:
		l.dropped.Inc()
	}
}

// close drains and stops the logging goroutine. Idempotent; waits for
// already-queued entries to be written (the goroutine-leak gate in the
// stress suite depends on the wait).
func (l *slowQueryLogger) close() {
	l.closeOnce.Do(func() {
		l.mu.Lock()
		l.closed = true
		l.mu.Unlock()
		close(l.ch)
	})
	l.wg.Wait()
}

// formatOpStats renders a per-operator summary: full display names
// (with query content) are fine in a log line, unlike in metric labels.
func formatOpStats(stats []algebra.OpStats) string {
	var b strings.Builder
	for i, s := range stats {
		if i > 0 {
			b.WriteString("; ")
		}
		fmt.Fprintf(&b, "%s in=%d out=%d pruned=%d", s.Name, s.In, s.Out, s.Pruned)
		if s.WallNS > 0 {
			fmt.Fprintf(&b, " wall=%s", time.Duration(s.WallNS).Round(time.Microsecond))
		}
	}
	return b.String()
}
