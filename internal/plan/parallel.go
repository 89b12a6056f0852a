// Parallel scan-partitioned plan execution.
//
// The pipelines of Fig. 4 process distinguished-node candidates one at
// a time, and per-candidate matching is independent — the only shared
// state a sound top-k evaluation needs is the pruning threshold. So the
// parallel executor splits the access path's candidate list (tag scan
// or twig output) into contiguous partitions, gives each worker its own
// full operator chain (each chain owns its Matcher, which reuses
// scratch buffers and is not concurrency-safe), and lets the workers
// exchange prune thresholds through an atomic, monotonically tightening
// SharedBound. A stale (lower) read of the bound is merely looser — it
// prunes less, never an answer that belongs in the top k — so workers
// never block on each other.
//
// Determinism: each worker returns the top k of its partition under the
// full rank order with NodeID tie-break; the final k-merge sorts the
// union under the same total order, which is exactly the sequential
// result whatever the partition count or goroutine interleaving.
package plan

import (
	"context"
	"runtime"
	"sort"

	"repro/internal/algebra"
	"repro/internal/sched"
)

// minPartition is the smallest candidate partition worth a dedicated
// worker: below this, goroutine spawn and per-worker chain construction
// cost more than scanning the partition sequentially.
const minPartition = 256

// MaxParallelism bounds the Parallelism option. Anything above it is a
// request error at the API boundary (the serving layer rejects it; see
// the contract in server.SearchRequest), never a silent clamp — the old
// behavior of accepting up to 1024 and quietly capping at the candidate
// count hid what actually ran.
const MaxParallelism = 64

// DefaultParallelMinNodes is the document size (node count) above which
// auto-resolution (Parallelism <= 0) grants intra-query workers. The
// threshold is read off BENCH_parallel.json: par=8 *loses* to par=1 at
// every XMark size up to 1 MB (57,558 nodes — 528µs vs 242µs at 101KB /
// 5,788 nodes) and first wins at 5.7 MB (324,990 nodes, 11.8ms vs
// 12.9ms). 150,000 sits between the largest losing size and the
// smallest winning one.
const DefaultParallelMinNodes = 150_000

// WorkerBudget is the allowance parallel Execute draws helper
// goroutines from (sched.Allowance; implemented by sched.Budget). A nil
// budget means "unbudgeted": up to GOMAXPROCS-1 helpers, the rule
// sched.Drain applies to every caller. Execution never blocks on the
// budget and results are identical whether a token is granted or not —
// a denied token just runs that partition in the caller's goroutine.
type WorkerBudget = sched.Allowance

// ResolveParallelism is the cost model behind the Parallelism knob,
// mirroring resolveAccess: it maps the requested setting and the
// document's node count to the worker count the plan will report.
//
//	requested == 1  -> 1 (explicit sequential)
//	requested >= 2  -> requested, capped at MaxParallelism (explicit
//	                   parallel; tests force workers on small inputs)
//	requested <= 0  -> auto: GOMAXPROCS when docNodes >= minNodes,
//	                   else 1 — small documents lose under intra-query
//	                   parallelism (BENCH_parallel.json), and under
//	                   concurrent load extra workers are pure
//	                   oversubscription.
//
// minNodes == 0 means DefaultParallelMinNodes; minNodes < 0 disables
// the threshold entirely (auto -> GOMAXPROCS unconditionally), which is
// the legacy behavior the load harness uses as its naive baseline.
// The result is deterministic for a given document, so it is safe to
// key result caches on (the serving layer does).
func ResolveParallelism(requested, docNodes, minNodes int) int {
	if requested == 1 {
		return 1
	}
	if requested >= 2 {
		if requested > MaxParallelism {
			return MaxParallelism
		}
		return requested
	}
	if minNodes == 0 {
		minNodes = DefaultParallelMinNodes
	}
	if minNodes > 0 && docNodes < minNodes {
		return 1
	}
	n := runtime.GOMAXPROCS(0)
	if n > MaxParallelism {
		n = MaxParallelism
	}
	return n
}

// effectiveWorkers scales the resolved parallelism down against the
// actual candidate count at Execute time: auto-resolved workers are
// dropped to one per minPartition candidates (worker setup costs more
// than scanning a short partition), and every worker needs at least one
// candidate. Explicit parallelism skips the load scale-down so tests
// can force workers on small inputs.
func (p *Plan) effectiveWorkers() int {
	n := p.par
	if n <= 1 {
		return 1
	}
	if p.parAuto {
		if byLoad := len(p.sourceIDs) / minPartition; byLoad < n {
			n = byLoad
		}
	}
	if n > len(p.sourceIDs) {
		n = len(p.sourceIDs)
	}
	if n < 1 {
		return 1
	}
	return n
}

// executeParallel runs the plan as w scan-partitioned partitions and
// k-merges their results deterministically. The partition *count* is
// fixed at w — that is what makes the result and the reported Workers()
// deterministic — but the *goroutine* count is not: sched.Drain runs
// the partitions on the caller's goroutine plus however many helpers
// Options.Budget grants. Under a saturated scheduler the helpers simply
// don't materialize and the caller runs every partition itself. Each
// partition chain carries its own cancellation probe bound to ctx, so a
// deadline or client disconnect aborts every partition cooperatively.
func (p *Plan) executeParallel(ctx context.Context, w int) ([]algebra.Answer, error) {
	ids := p.sourceIDs
	shared := algebra.NewSharedBound()
	type workerOut struct {
		top   []algebra.Answer
		stats []algebra.OpStats
	}
	outs := make([]workerOut, w)
	sched.Drain(p.opts.Budget, w, func(i int) {
		lo, hi := i*len(ids)/w, (i+1)*len(ids)/w
		src := &algebra.ListScanOp{Name: p.sourceName, IDs: ids[lo:hi]}
		ops, final, m := p.buildChain(src, shared, algebra.NewCancelCheck(ctx))
		root := ops[len(ops)-1]
		root.Open()
		for {
			if _, ok := root.Next(); !ok {
				break
			}
		}
		stats := make([]algebra.OpStats, len(ops))
		for j, op := range ops {
			stats[j] = op.Stats()
		}
		outs[i] = workerOut{top: final.TopK(), stats: stats}
		// The chain is dead and TopK copied out: hand the scratch back so
		// the next partition (or the next request) skips the allocations.
		algebra.ReleaseChainScratch(ops)
		m.ReleaseScratch()
	})
	p.lastWorkers = w
	if err := algebra.ContextErr(ctx); err != nil {
		// At least one worker may have stopped mid-partition; its top-k
		// list is not a sound summary of its partition, so the merge
		// below would be a silently truncated answer. Report the abort.
		p.parStats = nil
		return nil, err
	}

	// Position-wise stats merge: worker chains are built by the same
	// buildChain call sequence, so operator j means the same thing in
	// every worker. Counts and wall time are summed — a single worker's
	// chain would misreport the whole execution's traffic (regression:
	// TestParallelStatsAggregate).
	merged := outs[0].stats
	for _, o := range outs[1:] {
		for j := range merged {
			merged[j].In += o.stats[j].In
			merged[j].Out += o.stats[j].Out
			merged[j].Pruned += o.stats[j].Pruned
			merged[j].WallNS += o.stats[j].WallNS
		}
	}
	p.parStats = merged

	// Deterministic k-merge under the same total order as the sequential
	// final sort: rank comparison first, NodeID as tie-break. Partitions
	// are disjoint, so no deduplication is needed.
	all := make([]algebra.Answer, 0, w*p.K)
	for _, o := range outs {
		all = append(all, o.top...)
	}
	r, mode := p.ranker, p.Mode
	sort.SliceStable(all, func(i, j int) bool {
		c := r.Compare(&all[i], &all[j], mode)
		if c != 0 {
			return c > 0
		}
		return all[i].Node < all[j].Node
	})
	if len(all) > p.K {
		all = all[:p.K]
	}
	return all, nil
}
