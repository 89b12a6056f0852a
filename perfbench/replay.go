package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"
	"unicode/utf8"

	"repro/internal/algebra"
	"repro/internal/analysis"
	"repro/internal/corpus"
	"repro/internal/engine"
	"repro/internal/metrics"
	"repro/internal/plan"
	"repro/internal/profile"
	"repro/internal/registry"
	"repro/internal/sched"
	"repro/internal/server"
	"repro/internal/tpq"
	"repro/internal/xmldoc"
)

// The replica mirrors pimentod's defaults: -cache 512,
// -analysis-cache 256, the admission pool at GOMAXPROCS workers, and
// the workload's -shards.
const (
	replicaCache         = 512
	replicaAnalysisCache = 256
)

// opKinds are the operator kinds whose self time the traced run
// reports (algebra.self_us.<kind>); twigjoin is the synthetic entry
// Plan.Stats adds for the holistic join.
var opKinds = []string{"scan", "twigscan", "twigjoin", "listscan", "unitfilter", "required", "ftjoin",
	"ftouterjoin", "bonus", "vor", "kor", "sort", "topkPrune"}

// countingBudget wraps the pool's shared goroutine budget to count how
// often parallel execution asked for a helper and got one.
type countingBudget struct {
	b             *sched.Budget
	tries, grants atomic.Int64
}

func (c *countingBudget) TryAcquire() bool {
	c.tries.Add(1)
	ok := c.b.TryAcquire()
	if ok {
		c.grants.Add(1)
	}
	return ok
}

func (c *countingBudget) Release() { c.b.Release() }

// replica is the benchmark's in-process copy of the daemon's serving
// state, assembled from the same public constructors pimentod uses.
// Its search path calls each layer's public functions in the order
// handleSearch does, so a span around each call times that layer.
type replica struct {
	in     *input
	corp   *corpus.Corpus
	cache  *server.ResultCache
	ac     *engine.AnalysisCache
	reg    *registry.Registry
	pool   *sched.Pool
	budget *countingBudget
	puts   *putLog
	bodies [][]byte

	mu    sync.Mutex
	built map[builtKey]bool // plan builds seen, per document generation
	acc   layerAcc
}

type builtKey struct {
	doc string
	gen uint64
	req int
}

// layerAcc accumulates the per-layer counts of traced operations.
type layerAcc struct {
	execs, twig, par, workers int
	candidates, pruned        int
	selfNS                    map[string]int64
	joins, joinEmitted        int
	answers, srcBytes         int
	bodies, bodyBytes         int
	puts, invalidated         int
	putParseNS, putParseBytes int64
	putPrepareNS              []int64
	putCommitNS               []int64
}

// opRecord is what one operation reports besides its spans.
type opRecord struct {
	exec        bool
	stats       []algebra.OpStats
	par, wk     int
	twig        bool
	join        *plan.JoinStats
	pruned      int
	answers     int
	srcBytes    int
	bodyBytes   int
	put         bool
	invalidated int
	parseNS     int64
	parseBytes  int
	prepareNS   int64
	commitNS    int64
}

func newReplica(ctx context.Context, in *input, w *world) (*replica, error) {
	rp := &replica{
		in:     in,
		corp:   corpus.New(pipeline),
		cache:  server.NewResultCache(replicaCache),
		ac:     engine.NewAnalysisCache(replicaAnalysisCache),
		pool:   sched.New(sched.Config{}),
		puts:   newPutLog(len(in.hot)),
		bodies: requestBodies(in),
		built:  map[builtKey]bool{},
	}
	rp.acc.selfNS = map[string]int64{}
	rp.budget = &countingBudget{b: rp.pool.Budget()}
	rp.corp.SetBudget(rp.budget)
	rp.reg = registry.New(func(ctx context.Context, p *profile.Profile) ([]analysis.Diagnostic, error) {
		pv, err := rp.ac.ProfileVerdict(ctx, p)
		if err != nil {
			return nil, err
		}
		return pv.Diags, nil
	})
	snap := w.states[0].Snapshot()
	for _, d := range in.docs {
		e, _ := snap.Entry(d.name)
		rp.corp.Put(d.name, e.Document())
	}
	for _, p := range in.profiles {
		if _, _, err := rp.reg.Put(ctx, p.name, p.src); err != nil {
			return nil, fmt.Errorf("registering %s: %w", p.name, err)
		}
	}
	return rp, nil
}

// do runs one operation, traced when t is non-nil.
func (rp *replica) do(ctx context.Context, t *tracer, o op) sample {
	var rec opRecord
	var s sample
	if o.req < 0 {
		s = rp.put(o.hot, t, &rec)
	} else {
		s = sample{req: o.req, start: time.Now()}
		tr := t.begin("search")
		body, err := rp.search(ctx, rp.bodies[o.req], tr, o.req, &rec)
		tr.finish()
		s.end = time.Now()
		s.status, s.body = http.StatusOK, body
		if err != nil {
			s.status, s.body = http.StatusInternalServerError, []byte(err.Error())
		}
	}
	if t != nil {
		rp.record(&rec)
	}
	return s
}

// search is handleSearch's sequence: decode, snapshot, compile the
// request (query, profile, strategy, access), cache key, single-flight
// cache, and on a miss admission plus execution; then the per-request
// splice.
func (rp *replica) search(ctx context.Context, raw []byte, tr *opTrace, i int, rec *opRecord) ([]byte, error) {
	start := time.Now()
	tr.start("server.decode")
	var sreq server.SearchRequest
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	err := dec.Decode(&sreq)
	tr.end()
	if err != nil {
		return nil, err
	}
	snap := rp.corp.Snapshot()
	fanout := isFanout(&sreq)

	var req engine.Request
	tr.start("tpq.parse")
	if sreq.Query != "" {
		req.Query, err = tpq.Parse(sreq.Query)
	} else {
		req.Query = keywordQuery(sreq.Keywords)
	}
	tr.end()
	if err != nil {
		return nil, err
	}
	if sreq.Profile != "" {
		tr.start("profile.parse")
		req.Profile, err = profile.ParseProfile(sreq.Profile)
		tr.end()
		if err != nil {
			return nil, err
		}
	}
	if sreq.ProfileName != "" {
		tr.start("registry.get")
		st, ok := rp.reg.Get(sreq.ProfileName)
		tr.end()
		if !ok {
			return nil, fmt.Errorf("unknown profile %q", sreq.ProfileName)
		}
		req.Profile = st.Profile()
	}
	if req.Strategy, err = parseStrategy(sreq.Strategy); err != nil {
		return nil, err
	}
	req.K, req.Parallelism = sreq.K, sreq.Parallelism
	if sreq.Access != "" {
		if req.Access, err = plan.ParseAccessPath(sreq.Access); err != nil {
			return nil, err
		}
	}
	req.Timing = true
	req.Budget = rp.budget
	var entry *corpus.Entry
	if !fanout {
		var ok bool
		if entry, ok = snap.Entry(sreq.Doc); !ok {
			return nil, fmt.Errorf("unknown document %q", sreq.Doc)
		}
	}

	fill := func() (any, error) { return rp.execute(ctx, snap, entry, &sreq, req, tr, i, rec) }
	var payload any
	if sreq.NoCache {
		payload, err = fill()
	} else {
		tr.start("server.cache_key")
		var key string
		var tags []string
		if fanout {
			key, tags = req.CacheKey(snap.Fingerprint(), 1), []string{server.TagAll}
		} else {
			e := rp.engineFor(entry)
			key, tags = req.CacheKey(e.Fingerprint(), e.ResolvedParallelism(&req)), []string{sreq.Doc}
		}
		tr.end()
		tr.start("server.cache")
		payload, _, err = rp.cache.DoTagged(ctx, key, tags, fill)
		tr.end()
	}
	if err != nil {
		return nil, err
	}
	tr.start("server.splice")
	body := payload.([]byte)
	out := make([]byte, 0, len(body)+48)
	out = append(out, body[:len(body)-1]...)
	out = append(out, fmt.Sprintf(`,"elapsed_us":%d,"cache_age_ms":%d}`, time.Since(start).Microseconds(), 0)...)
	tr.end()
	return out, nil
}

// engineFor is the daemon's per-request engine over a snapshot entry.
func (rp *replica) engineFor(e *corpus.Entry) *engine.Engine {
	eng := engine.FromParts(e.Document(), e.Index())
	eng.SetFingerprint(e.Fingerprint())
	eng.UseAnalysisCache(rp.ac)
	return eng
}

// execute is the cache fill: admission, then the fan-out or the
// single-document pipeline, then the marshal of the cacheable body.
func (rp *replica) execute(ctx context.Context, snap *corpus.Snapshot, entry *corpus.Entry, sreq *server.SearchRequest, req engine.Request, tr *opTrace, i int, rec *opRecord) ([]byte, error) {
	tr.start("sched.admit")
	release, err := rp.pool.Acquire(ctx)
	tr.end()
	if err != nil {
		return nil, err
	}
	defer release()
	var body server.SearchBody
	if entry == nil {
		tr.start("corpus.fanout")
		sresp, err := snap.SearchSharded(ctx, req.Query, req.Profile, req.K, req.Strategy,
			corpus.ShardOptions{Shards: rp.in.shards})
		tr.end()
		if err != nil {
			return nil, err
		}
		body = server.SearchBody{
			Degraded: sresp.Degraded, TimedOutShards: sresp.TimedOutShards,
			Results: make([]server.SearchResult, 0, len(sresp.Results)),
			K:       resolveK(req.K), Strategy: req.Strategy.String(), AppliedSRs: sresp.AppliedSRs,
			Parallelism: 1, DocsSearched: sresp.DocsSearched, ExecUS: sresp.Elapsed.Microseconds(),
		}
		for _, r := range sresp.Results {
			body.Results = append(body.Results, server.SearchResult{Doc: r.DocName, Node: uint32(r.Node), Path: r.Path, S: r.S, K: r.K, Snippet: r.Snippet})
		}
	} else if body, err = rp.single(ctx, entry, sreq, req, tr, i, rec); err != nil {
		return nil, err
	}
	tr.start("server.marshal")
	b, err := json.Marshal(&body)
	tr.end()
	rec.bodyBytes = len(b)
	return b, err
}

func resolveK(k int) int {
	if k == 0 {
		return 10
	}
	return k
}

// single is engine.SearchContext taken apart at its layer boundaries:
// memoized analysis, plan build, execute, and materialize.
func (rp *replica) single(ctx context.Context, entry *corpus.Entry, sreq *server.SearchRequest, req engine.Request, tr *opTrace, i int, rec *opRecord) (server.SearchBody, error) {
	start := time.Now()
	et := metrics.NewTrace()
	k := resolveK(req.K)
	q := req.Query
	var applied []string
	if req.Profile != nil {
		tr.start("engine.analysis")
		endAnalyze := et.Start("analyze")
		pv, err := rp.ac.ProfileVerdict(ctx, req.Profile)
		var qv *engine.QueryVerdict
		if err == nil && pv.AmbiguityErr == nil {
			qv, err = rp.ac.QueryVerdict(ctx, req.Profile, req.Query)
		}
		endAnalyze()
		tr.end()
		switch {
		case err != nil:
			return server.SearchBody{}, err
		case pv.AmbiguityErr != nil:
			return server.SearchBody{}, pv.AmbiguityErr
		case qv.ConflictErr != nil:
			return server.SearchBody{}, qv.ConflictErr
		}
		q, applied = qv.Encoded, qv.Applied
	}

	key := builtKey{doc: sreq.Doc, gen: entry.Generation(), req: i}
	rp.mu.Lock()
	cold := !rp.built[key]
	rp.built[key] = true
	rp.mu.Unlock()
	name := "plan.build"
	if cold {
		name = "plan.build_cold"
	}
	tr.start(name)
	endBuild := et.Start("build")
	p, err := plan.BuildWith(entry.Index(), q, req.Profile, k, plan.Options{
		Strategy: req.Strategy, AccessPath: req.Access, Parallelism: req.Parallelism,
		ParallelMinNodes: req.ParallelMinNodes, Budget: req.Budget, Timing: req.Timing,
	})
	endBuild()
	tr.end()
	if err != nil {
		return server.SearchBody{}, err
	}
	defer p.Release()

	tr.start("algebra.execute")
	endExecute := et.Start("execute")
	answers, err := p.ExecuteContext(ctx)
	endExecute()
	tr.end()
	if err != nil {
		return server.SearchBody{}, err
	}

	endRank := et.Start("rank")
	tr.start("plan.stats")
	shape, stats, pruned := p.String(), p.Stats(), p.TotalPruned()
	tr.end()
	tr.start("engine.materialize")
	results, src := materialize(entry.Document(), answers, sreq.Doc)
	tr.end()
	endRank()

	*rec = opRecord{exec: true, stats: stats, par: p.Parallelism(), wk: p.Workers(),
		twig: p.Access() == plan.AccessTwigJoin, join: p.JoinStats(), pruned: pruned,
		answers: len(answers), srcBytes: src}
	return server.SearchBody{
		Results: results, K: k, Strategy: req.Strategy.String(), AppliedSRs: applied,
		PlanShape: shape, Workers: p.Workers(), Parallelism: p.Parallelism(), TotalPruned: pruned,
		DocsSearched: 1, ExecUS: time.Since(start).Microseconds(), Trace: et.Spans(),
	}, nil
}

// materialize is the engine's answer materialization: each answer's
// path, plus a 90-character snippet folded from its whole subtree
// text. It also returns the subtree text bytes it read.
func materialize(d *xmldoc.Document, answers []algebra.Answer, doc string) ([]server.SearchResult, int) {
	out := make([]server.SearchResult, len(answers))
	src := 0
	for i, a := range answers {
		text := d.TextContent(a.Node)
		src += len(text)
		out[i] = server.SearchResult{Doc: doc, Node: uint32(a.Node), Path: d.Path(a.Node), S: a.S, K: a.K, Snippet: snippet(text, 90)}
	}
	return out, src
}

// snippet folds whitespace and cuts at max bytes on a word boundary,
// as the engine does.
func snippet(s string, max int) string {
	s = strings.Join(strings.Fields(s), " ")
	if len(s) <= max {
		return s
	}
	for max > 0 && !utf8.RuneStart(s[max]) {
		max--
	}
	cut := s[:max]
	if i := strings.LastIndexByte(cut, ' '); i > max/2 {
		cut = cut[:i]
	}
	return cut + "…"
}

// put is handlePutDoc's sequence for a hot document: parse, prepare
// (index + fingerprint), then commit plus targeted cache invalidation.
func (rp *replica) put(h int, t *tracer, rec *opRecord) sample {
	doc := &rp.in.docs[rp.in.hot[h]]
	return rp.puts.swap(h, func(to int) sample {
		src := doc.versions[to]
		s := sample{req: -1, start: time.Now(), status: http.StatusOK}
		tr := t.begin("put")
		tr.start("xmldoc.parse")
		t0 := time.Now()
		d, err := xmldoc.ParseString(string(src))
		rec.parseNS, rec.parseBytes = time.Since(t0).Nanoseconds(), len(src)
		tr.end()
		if err != nil {
			tr.finish()
			s.end, s.status = time.Now(), http.StatusBadRequest
			return s
		}
		tr.start("corpus.prepare")
		t0 = time.Now()
		p := rp.corp.Prepare(d)
		rec.prepareNS = time.Since(t0).Nanoseconds()
		tr.end()
		tr.start("corpus.commit")
		t0 = time.Now()
		rp.corp.Commit(doc.name, p)
		rec.invalidated = rp.cache.Invalidate(doc.name)
		rec.commitNS = time.Since(t0).Nanoseconds()
		tr.end()
		tr.finish()
		rec.put = true
		s.end = time.Now()
		return s
	})
}

// record folds one traced operation into the accumulators.
func (rp *replica) record(rec *opRecord) {
	rp.mu.Lock()
	defer rp.mu.Unlock()
	a := &rp.acc
	if rec.put {
		a.puts++
		a.invalidated += rec.invalidated
		a.putParseNS += rec.parseNS
		a.putParseBytes += int64(rec.parseBytes)
		a.putPrepareNS = append(a.putPrepareNS, rec.prepareNS)
		a.putCommitNS = append(a.putCommitNS, rec.commitNS)
	}
	if rec.bodyBytes > 0 {
		a.bodies++
		a.bodyBytes += rec.bodyBytes
	}
	if !rec.exec {
		return
	}
	a.execs++
	a.par += rec.par
	a.workers += rec.wk
	if rec.twig {
		a.twig++
	}
	a.pruned += rec.pruned
	a.answers += rec.answers
	a.srcBytes += rec.srcBytes
	if rec.join != nil {
		a.joins++
		a.joinEmitted += rec.join.Emitted
	}
	// Source output: the join's candidates on the twigjoin path, else
	// the first chain operator's.
	if len(rec.stats) > 0 {
		a.candidates += rec.stats[0].Out
	}
	var below int64
	for _, st := range rec.stats {
		a.selfNS[st.Kind()] += st.WallNS - below
		below = st.WallNS
	}
}

// vetCold times analysis.Vet plus the flock encoding for every
// distinct (profile, query) pair, on values no cache has seen.
func vetCold(w *world) (float64, int, error) {
	seen := map[string]bool{}
	var total time.Duration
	n := 0
	for i := range w.in.requests {
		r := &w.in.requests[i]
		if r.Profile == "" && r.ProfileName == "" {
			continue
		}
		key := r.Profile + "\x00" + r.ProfileName + "\x00" + r.Query
		if seen[key] {
			continue
		}
		seen[key] = true
		c, err := w.compile(r)
		if err != nil {
			return 0, 0, err
		}
		// Parse afresh so nothing memoized on the values is reused.
		src := r.Profile
		if src == "" {
			for _, np := range w.in.profiles {
				if np.name == r.ProfileName {
					src = np.src
				}
			}
		}
		p, err := profile.ParseProfile(src)
		if err != nil {
			return 0, 0, err
		}
		start := time.Now()
		analysis.Vet(p, c.q)
		_, _, err = analysis.EncodeFlock(p.SRs, c.q)
		total += time.Since(start)
		n++
		if err != nil {
			return 0, 0, err
		}
	}
	if n == 0 {
		return 0, 0, nil
	}
	return float64(total.Microseconds()) / float64(n), n, nil
}

// timingOverhead executes the distinct single-document requests with
// per-operator timing on and off, alternating, for dur; it returns the
// on/off execute-time ratio minus one.
func (rp *replica) timingOverhead(ctx context.Context, w *world, dur time.Duration) (float64, int, error) {
	var on, off time.Duration
	n := 0
	deadline := time.Now().Add(dur)
	for i := 0; time.Now().Before(deadline) || n == 0; i++ {
		r := &rp.in.requests[i%rp.in.nSingle]
		c, err := w.compile(r)
		if err != nil {
			return 0, 0, err
		}
		entry, ok := rp.corp.Snapshot().Entry(r.Doc)
		if !ok {
			return 0, 0, fmt.Errorf("unknown document %q", r.Doc)
		}
		q := c.q
		if c.prof != nil {
			qv, err := rp.ac.QueryVerdict(ctx, c.prof, c.q)
			if err != nil {
				return 0, 0, err
			}
			q = qv.Encoded
		}
		access := plan.AccessAuto
		if r.Access != "" {
			access, _ = plan.ParseAccessPath(r.Access)
		}
		for _, timing := range []bool{i%2 == 0, i%2 != 0} {
			p, err := plan.BuildWith(entry.Index(), q, c.prof, resolveK(c.k), plan.Options{
				Strategy: c.strat, AccessPath: access, Budget: rp.budget, Timing: timing,
			})
			if err != nil {
				return 0, 0, err
			}
			start := time.Now()
			_, err = p.ExecuteContext(ctx)
			d := time.Since(start)
			p.Release()
			if err != nil {
				return 0, 0, err
			}
			if timing {
				on += d
			} else {
				off += d
			}
		}
		n++
	}
	return float64(on)/float64(off) - 1, n, nil
}
