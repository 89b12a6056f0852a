// Sharded scatter-gather fan-out: the corpus snapshot partitioned by
// consistent hashing over document names, searched shard-by-shard with
// per-shard deadline budgets carved from the request deadline.
//
// The merge is exact: each shard returns its local top k under the
// profile's total rank order (rank, then document name, then node — the
// same comparator the unsharded path sorts with), and any answer
// outside its shard's top k is dominated by k answers from that same
// shard, so merging the per-shard lists and truncating to k reproduces
// the global top k byte-for-byte. TestSearchShardedMatchesUnsharded and
// the serving layer's differential test pin this equivalence.
//
// Degradation is the one divergence: a shard that exhausts its carved
// deadline while the request as a whole is still alive is dropped from
// the merge and reported in TimedOutShards — partial answers beat a
// 504 when one shard is cold or slow. A degraded response is never
// cached upstream (see the serving layer).
package corpus

import (
	"context"
	"fmt"
	"hash/fnv"
	"sort"
	"time"

	"repro/internal/algebra"
	"repro/internal/plan"
	"repro/internal/profile"
	"repro/internal/sched"
	"repro/internal/tpq"
)

// vnodesPerShard is the number of points each shard owns on the hash
// ring. More vnodes smooth the document distribution and shrink the
// fraction of names that move when the shard count changes.
const vnodesPerShard = 64

// DefaultShardDeadlineFrac is the fraction of the request's remaining
// deadline each shard is granted when ShardOptions.DeadlineFrac is
// unset: most of the budget, with headroom left for the merge.
const DefaultShardDeadlineFrac = 0.9

// hash64 is the ring hash (FNV-1a: stable across processes, so shard
// assignment survives restarts).
func hash64(s string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(s))
	return h.Sum64()
}

// ShardNames partitions names across n shards by consistent hashing:
// each shard owns vnodesPerShard points on a ring and a document lands
// on the shard owning the first point at or after its own hash. The
// assignment depends only on (name, n) — not on what else is
// registered — so adding or removing a document never reshuffles the
// others, and changing n moves only ~1/n of the names. Relative
// insertion order is preserved within each shard.
func ShardNames(names []string, n int) [][]string {
	if n < 1 {
		n = 1
	}
	out := make([][]string, n)
	if n == 1 {
		out[0] = append([]string(nil), names...)
		return out
	}
	type point struct {
		h     uint64
		shard int
	}
	ring := make([]point, 0, n*vnodesPerShard)
	for s := 0; s < n; s++ {
		for v := 0; v < vnodesPerShard; v++ {
			ring = append(ring, point{hash64(fmt.Sprintf("shard-%d/%d", s, v)), s})
		}
	}
	sort.Slice(ring, func(i, j int) bool {
		if ring[i].h != ring[j].h {
			return ring[i].h < ring[j].h
		}
		return ring[i].shard < ring[j].shard
	})
	for _, name := range names {
		h := hash64(name)
		i := sort.Search(len(ring), func(i int) bool { return ring[i].h >= h })
		if i == len(ring) {
			i = 0 // wrap: past the last point lands on the first
		}
		out[ring[i].shard] = append(out[ring[i].shard], name)
	}
	return out
}

// ShardOptions tunes SearchSharded.
type ShardOptions struct {
	// Shards is the number of consistent-hash partitions. Values below 2
	// are the unsharded fan-out, exactly SearchContext: every document
	// is its own partition, DeadlineFrac is ignored and the response
	// never degrades.
	Shards int
	// DeadlineFrac is the fraction of the request's *remaining* deadline
	// granted to each shard (0 means DefaultShardDeadlineFrac). With no
	// request deadline, shards are unbounded and the fan-out never
	// degrades.
	DeadlineFrac float64
	// ShardStart, when non-nil, runs at the start of each shard's work,
	// after its deadline is carved — a test seam for simulating a slow
	// shard. Production callers leave it nil.
	ShardStart func(shard int)
}

// ShardedResponse is a scatter-gather outcome: the merged Response
// plus the degradation report.
type ShardedResponse struct {
	Response
	// Degraded is true when at least one shard blew its deadline budget
	// and was dropped from the merge; Results then cover only the
	// surviving shards (and DocsSearched counts only their documents).
	Degraded bool
	// TimedOutShards lists the dropped shards' indices in ascending
	// order.
	TimedOutShards []int
	// ShardsRun is the number of shards that held at least one document
	// (empty shards are skipped, not scattered). Unsharded, every
	// document is its own partition, so it counts documents.
	ShardsRun int
}

// shardContext carves one shard's deadline budget out of the parent's
// remaining time: frac of what is left at carve time. With no carve
// (frac 0), no parent deadline, or an already expired one, the shard
// runs under the parent context itself.
func shardContext(ctx context.Context, frac float64) (context.Context, context.CancelFunc) {
	dl, ok := ctx.Deadline()
	remaining := time.Until(dl)
	if frac <= 0 || !ok || remaining <= 0 {
		return ctx, func() {}
	}
	return context.WithDeadline(ctx, time.Now().Add(time.Duration(frac*float64(remaining))))
}

// SearchSharded evaluates the query against this snapshot as a
// scatter-gather over consistent-hash shards, each searched
// sequentially under a deadline carved from the request's. Shards < 2
// is the unsharded fan-out (SearchContext): one partition per document
// and no carve, so it never degrades. Either way the partitions are
// drained by sched.Drain under the corpus's shared budget (SetBudget),
// so partitions × per-plan workers can never oversubscribe the machine.
// With no request deadline the result is always complete; with one,
// shards that exhaust their carved budget are dropped and reported
// (Degraded/TimedOutShards) as long as the request itself is still
// alive — a dead request returns its error, never a partial merge.
func (s *Snapshot) SearchSharded(ctx context.Context, q *tpq.Query, prof *profile.Profile, k int, strat plan.Strategy, opts ShardOptions) (*ShardedResponse, error) {
	if opts.Shards < 2 {
		parts := make([][]string, len(s.names))
		for i := range s.names {
			parts[i] = s.names[i : i+1 : i+1]
		}
		return s.scatter(ctx, q, prof, k, strat, parts, 0, opts.ShardStart)
	}
	frac := opts.DeadlineFrac
	if frac <= 0 || frac > 1 {
		frac = DefaultShardDeadlineFrac
	}
	return s.scatter(ctx, q, prof, k, strat, ShardNames(s.names, opts.Shards), frac, opts.ShardStart)
}

// scatter is the one corpus fan-out. It encodes the query once, runs
// every non-empty partition of document names (sequentially within a
// partition) on sched.Drain, keeps each partition's local top k, and
// merges them under the global comparator. frac > 0 carves each
// partition's deadline from the request's remaining time and drops
// partitions that blow it; frac == 0 runs every partition under ctx
// itself. start, when non-nil, runs as each partition begins.
func (s *Snapshot) scatter(ctx context.Context, q *tpq.Query, prof *profile.Profile, k int, strat plan.Strategy, parts [][]string, frac float64, start func(int)) (*ShardedResponse, error) {
	if q == nil {
		return nil, fmt.Errorf("corpus: nil query")
	}
	if k < 0 {
		return nil, fmt.Errorf("corpus: negative k %d (use 0 for the default of 10)", k)
	}
	if k == 0 {
		k = 10
	}
	began := time.Now()

	encoded, applied, err := s.encodeForSearch(q, prof)
	if err != nil {
		return nil, err
	}

	work := make([]int, 0, len(parts))
	for i, part := range parts {
		if len(part) > 0 {
			work = append(work, i)
		}
	}

	type partResult struct {
		hits     []docHit
		timedOut bool
		err      error
	}
	results := make([]partResult, len(parts))
	sched.Drain(s.c.budget, len(work), func(j int) {
		if algebra.ContextErr(ctx) != nil {
			return // fan-out aborted before this partition's turn
		}
		i := work[j]
		pctx, cancel := shardContext(ctx, frac)
		defer cancel()
		if start != nil {
			start(i)
		}
		// Documents run one plan at a time: the scatter is the
		// parallelism. An expiry mid-partition keeps the hits so far;
		// pctx below tells a completed partition from a truncated one.
		var hits []docHit
		for _, name := range parts[i] {
			if algebra.ContextErr(pctx) != nil {
				break
			}
			p, err := plan.BuildWith(s.entries[name].idx, encoded, prof, k,
				plan.Options{Strategy: strat, Parallelism: 1})
			if err != nil {
				results[i].err = fmt.Errorf("corpus: %s: %w", name, err)
				return
			}
			answers, err := p.ExecuteContext(pctx)
			p.Release()
			if err != nil {
				break
			}
			for _, a := range answers {
				hits = append(hits, docHit{doc: name, a: a})
			}
		}
		if algebra.ContextErr(pctx) != nil {
			if perr := algebra.ContextErr(ctx); perr != nil {
				results[i].err = perr // the request itself died, not just this partition
				return
			}
			results[i].timedOut = true
			return
		}
		// Local top k under the global comparator: anything ranked below
		// a partition's own kth answer cannot appear in the merged top k.
		// At most k hits (every one-document partition) need no
		// pre-sort; the merge orders them.
		if len(hits) > k {
			hits = rankHits(hits, prof, k)
		}
		results[i].hits = hits
	})

	if err := algebra.ContextErr(ctx); err != nil {
		return nil, err
	}
	for _, r := range results {
		if r.err != nil {
			return nil, r.err
		}
	}

	var (
		all      []docHit
		timedOut []int
		docs     int
	)
	for i, r := range results {
		if r.timedOut {
			timedOut = append(timedOut, i)
			continue
		}
		all = append(all, r.hits...)
		docs += len(parts[i])
	}
	resp := s.materialize(rankHits(all, prof, k), applied, docs, time.Since(began))
	return &ShardedResponse{
		Response:       *resp,
		Degraded:       len(timedOut) > 0,
		TimedOutShards: timedOut,
		ShardsRun:      len(work),
	}, nil
}
