package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"sort"
	"strings"
	"time"

	"repro/internal/corpus"
	"repro/internal/engine"
	"repro/internal/plan"
	"repro/internal/profile"
	"repro/internal/server"
	"repro/internal/text"
	"repro/internal/tpq"
	"repro/internal/xmldoc"
)

// pipeline is pimentod's default text pipeline (-stem true, -stopwords
// false); the in-process corpora must index exactly as the daemon does.
var pipeline = text.Pipeline{Stem: true}

// digest canonicalizes a ranked answer list: the results re-marshaled
// from their decoded form, so field order, spacing and the volatile
// per-request fields (elapsed_us, exec_us, trace, ...) never matter.
func digest(rs []server.SearchResult) string {
	if rs == nil {
		rs = []server.SearchResult{}
	}
	b, err := json.Marshal(rs)
	if err != nil {
		panic(err) // SearchResult holds only strings and numbers
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:16])
}

// bodyDigest is digest over a /search response body. A degraded fan-out
// is an incomplete answer and never matches.
func bodyDigest(body []byte) (string, error) {
	var b struct {
		Results  []server.SearchResult `json:"results"`
		Degraded bool                  `json:"degraded"`
	}
	if err := json.Unmarshal(body, &b); err != nil {
		return "", fmt.Errorf("decoding response: %w", err)
	}
	if b.Degraded {
		return "", errors.New("degraded fan-out response")
	}
	return digest(b.Results), nil
}

// parseStrategy mirrors the daemon's wire strategy names.
func parseStrategy(s string) (plan.Strategy, error) {
	switch s {
	case "", "push":
		return plan.Push, nil
	case "naive":
		return plan.Naive, nil
	case "interleave":
		return plan.InterleaveNoSort, nil
	case "interleave-sort":
		return plan.InterleaveSort, nil
	}
	return plan.Default, fmt.Errorf("unknown strategy %q", s)
}

// keywordQuery is the content-only query form the daemon builds for a
// "keywords" request: any element whose subtree contains the phrase.
func keywordQuery(keywords string) *tpq.Query {
	q := tpq.NewQuery("*", tpq.Descendant)
	q.Nodes[0].FT = append(q.Nodes[0].FT, tpq.FTPred{Phrase: keywords})
	return q
}

// world is the benchmark's in-process copy of what the daemon serves:
// one corpus per reachable state (a version choice for every hot
// document), built from the same bytes the daemon loads.
type world struct {
	in       *input
	profiles map[string]*profile.Profile
	states   []*corpus.Corpus // state s gives hot doc h version (s>>h)&1
	refs     map[refKey]string

	parseNS, parseBytes int64
	prepareNS           []int64 // one per prepared document version
	commitNS            []int64
}

type refKey struct {
	req, state int
}

// newWorld parses and indexes every document version and commits them
// into the per-state corpora, timing each layer on the way.
func newWorld(in *input) (*world, error) {
	w := &world{in: in, profiles: map[string]*profile.Profile{}, refs: map[refKey]string{}}
	for _, np := range in.profiles {
		p, err := profile.ParseProfile(np.src)
		if err != nil {
			return nil, fmt.Errorf("profile %s: %w", np.name, err)
		}
		w.profiles[np.name] = p
	}
	scratch := corpus.New(pipeline)
	prepared := make([][]*corpus.Prepared, len(in.docs))
	for i, d := range in.docs {
		for _, src := range d.versions {
			start := time.Now()
			doc, err := xmldoc.Parse(bytes.NewReader(src))
			w.parseNS += time.Since(start).Nanoseconds()
			w.parseBytes += int64(len(src))
			if err != nil {
				return nil, fmt.Errorf("%s: %w", d.name, err)
			}
			start = time.Now()
			p := scratch.Prepare(doc)
			w.prepareNS = append(w.prepareNS, time.Since(start).Nanoseconds())
			prepared[i] = append(prepared[i], p)
		}
	}
	for s := 0; s < 1<<len(in.hot); s++ {
		c := corpus.New(pipeline)
		for i, d := range in.docs {
			start := time.Now()
			c.Commit(d.name, prepared[i][w.version(s, i)])
			w.commitNS = append(w.commitNS, time.Since(start).Nanoseconds())
		}
		w.states = append(w.states, c)
	}
	return w, nil
}

// version is the version of document doc in state s.
func (w *world) version(s, doc int) int {
	for h, d := range w.in.hot {
		if d == doc {
			return (s >> h) & 1
		}
	}
	return 0
}

// docIndex returns the position of name in the input's document list.
func (w *world) docIndex(name string) int {
	for i, d := range w.in.docs {
		if d.name == name {
			return i
		}
	}
	return -1
}

// compiled is a wire request resolved against the benchmark's own
// parsers, for the reference and replay paths.
type compiled struct {
	q     *tpq.Query
	prof  *profile.Profile
	strat plan.Strategy
	k     int
}

func (w *world) compile(r *server.SearchRequest) (compiled, error) {
	var c compiled
	var err error
	if r.Query != "" {
		if c.q, err = tpq.Parse(r.Query); err != nil {
			return c, err
		}
	} else {
		c.q = keywordQuery(r.Keywords)
	}
	switch {
	case r.Profile != "":
		if c.prof, err = profile.ParseProfile(r.Profile); err != nil {
			return c, err
		}
	case r.ProfileName != "":
		p, ok := w.profiles[r.ProfileName]
		if !ok {
			return c, fmt.Errorf("unknown profile %q", r.ProfileName)
		}
		c.prof = p
	}
	if c.strat, err = parseStrategy(r.Strategy); err != nil {
		return c, err
	}
	c.k = r.K
	return c, nil
}

// reference computes the answer digest of request i in state s with the
// repo's differential oracles: sequential (parallelism 1), scan access,
// no caches, and the unsharded Snapshot.SearchContext for fan-outs.
func (w *world) reference(ctx context.Context, i, s int) (string, error) {
	r := &w.in.requests[i]
	c, err := w.compile(r)
	if err != nil {
		return "", err
	}
	snap := w.states[s].Snapshot()
	var rs []server.SearchResult
	if isFanout(r) {
		resp, err := snap.SearchContext(ctx, c.q, c.prof, c.k, c.strat)
		if err != nil {
			return "", err
		}
		for _, a := range resp.Results {
			rs = append(rs, server.SearchResult{Doc: a.DocName, Node: uint32(a.Node), Path: a.Path, S: a.S, K: a.K, Snippet: a.Snippet})
		}
		return digest(rs), nil
	}
	e, ok := snap.Entry(r.Doc)
	if !ok {
		return "", fmt.Errorf("unknown document %q", r.Doc)
	}
	resp, err := engine.FromParts(e.Document(), e.Index()).SearchContext(ctx, engine.Request{
		Query: c.q, Profile: c.prof, K: c.k, Strategy: c.strat,
		Access: plan.AccessScan, Parallelism: 1,
	})
	if err != nil {
		return "", err
	}
	for _, a := range resp.Results {
		rs = append(rs, server.SearchResult{Doc: r.Doc, Node: uint32(a.Node), Path: a.Path, S: a.S, K: a.K, Snippet: a.Snippet})
	}
	return digest(rs), nil
}

// isFanout reports whether a request searches the whole corpus.
func isFanout(r *server.SearchRequest) bool { return r.Doc == "" || r.Doc == "*" }

// hotOf returns the hot index of request i's document, or -1 when no
// PUT ever replaces it (or the request is a fan-out).
func (w *world) hotOf(i int) int {
	r := &w.in.requests[i]
	if isFanout(r) {
		return -1
	}
	d := w.docIndex(r.Doc)
	for h, hd := range w.in.hot {
		if hd == d {
			return h
		}
	}
	return -1
}

// relevantStates lists the states whose answers can differ for request
// i: every state for a fan-out, one per version of a hot target, and
// state 0 alone otherwise.
func (w *world) relevantStates(i int) []int {
	if isFanout(&w.in.requests[i]) {
		out := make([]int, len(w.states))
		for s := range out {
			out[s] = s
		}
		return out
	}
	if h := w.hotOf(i); h >= 0 {
		return []int{0, 1 << h}
	}
	return []int{0}
}

// computeRefs fills the reference digest of every distinct request in
// every state its answer depends on.
func (w *world) computeRefs(ctx context.Context) error {
	for i := range w.in.requests {
		for _, s := range w.relevantStates(i) {
			d, err := w.reference(ctx, i, s)
			if err != nil {
				return fmt.Errorf("reference for request %d: %w", i, err)
			}
			w.refs[refKey{i, s}] = d
		}
	}
	return nil
}

// canonicalState maps a state to the one computeRefs stored request i's
// reference under: only the versions request i depends on are kept.
func (w *world) canonicalState(i, s int) int {
	if isFanout(&w.in.requests[i]) {
		return s
	}
	if h := w.hotOf(i); h >= 0 {
		return s & (1 << h)
	}
	return 0
}

// putEvent is one PUT of a hot document: it made version `to` current
// at some instant between start and end.
type putEvent struct {
	to         int
	start, end time.Time
}

// reachable returns the states a request running from t0 to t1 may
// have observed, given every hot document's PUT history (each history
// is sequential: the driver never overlaps two PUTs of one document).
func reachable(hist [][]putEvent, t0, t1 time.Time) []int {
	per := make([][]int, len(hist))
	for h, evs := range hist {
		seen := map[int]bool{}
		// The initial version is possibly current until the first PUT
		// ends; version after PUT j until PUT j+1 ends.
		from, cur := time.Time{}, 0
		for j := 0; j <= len(evs); j++ {
			var until time.Time // zero: open-ended
			if j < len(evs) {
				until = evs[j].end
			}
			if !from.After(t1) && (until.IsZero() || !until.Before(t0)) {
				seen[cur] = true
			}
			if j < len(evs) {
				from, cur = evs[j].start, evs[j].to
			}
		}
		for v := range seen {
			per[h] = append(per[h], v)
		}
		sort.Ints(per[h])
	}
	states := []int{0}
	for h, vs := range per {
		var next []int
		for _, s := range states {
			for _, v := range vs {
				next = append(next, s|v<<h)
			}
		}
		states = next
	}
	sort.Ints(states)
	return states
}

// check reports whether got matches request i's reference in one of the
// given states.
func (w *world) check(i int, got string, states []int) bool {
	for _, s := range states {
		if w.refs[refKey{i, w.canonicalState(i, s)}] == got {
			return true
		}
	}
	return false
}

// describe names a request for mismatch reports.
func describe(r *server.SearchRequest) string {
	var parts []string
	parts = append(parts, "doc="+r.Doc)
	if r.Query != "" {
		parts = append(parts, "query="+r.Query)
	} else {
		parts = append(parts, "keywords="+r.Keywords)
	}
	if r.ProfileName != "" {
		parts = append(parts, "profile_name="+r.ProfileName)
	}
	if r.Profile != "" {
		parts = append(parts, fmt.Sprintf("profile=<%d kors>", strings.Count(r.Profile, "kor ")))
	}
	parts = append(parts, fmt.Sprintf("k=%d strategy=%s access=%s", r.K, r.Strategy, r.Access))
	return strings.Join(parts, " ")
}
