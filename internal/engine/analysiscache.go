// Memoized profile/query analysis. The Section 5 analyses and the vet
// suite are pure functions of the profile (and query), so verdicts are
// cached under the profile fingerprint (plus the canonical query for
// query-scoped work) and their artifacts (encoded query, applied-rule
// list, diagnostics) are shared copy-on-write. Unlike the result cache,
// analysis *rejections* are cached inside the verdicts: an ambiguous
// profile is deterministically ambiguous. A lookup fails only when the
// caller's context expires mid-fill or the fill panicked.
package engine

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"maps"
	"sync"

	"repro/internal/analysis"
	"repro/internal/lru"
	"repro/internal/profile"
	"repro/internal/tpq"
)

// ambiguityErr is the Section 5.2 gate: the Search-blocking rejection of
// a profile whose VORs are ambiguous under priorities, or nil.
func ambiguityErr(p *profile.Profile) error {
	rep := analysis.DetectAmbiguityPrioritized(p.VORs)
	if !rep.Ambiguous {
		return nil
	}
	return fmt.Errorf("engine: ambiguous value-based ordering rules (cycle %v): %s", rep.Cycle, rep.Suggestion)
}

// ProfileFingerprint hashes a profile's canonical serialization; equal
// fingerprints mean the profiles analyze (and rank) identically. The
// fingerprint is document-independent, so one AnalysisCache serves every
// engine in a registry.
func ProfileFingerprint(p *profile.Profile) string {
	sum := sha256.Sum256([]byte(CanonicalProfile(p)))
	return hex.EncodeToString(sum[:8])
}

// ProfileVerdict is the cached outcome of the profile-scoped analyses:
// the vet diagnostics and the Section 5.2 ambiguity gate.
type ProfileVerdict struct {
	Fingerprint string
	// Diags is VetProfile's output (sorted, canonical witnesses).
	Diags []analysis.Diagnostic
	// AmbiguityErr is the Search-blocking rejection, nil when the VOR
	// set is unambiguous under priorities.
	AmbiguityErr error
}

// QueryVerdict is the cached outcome of analyzing one (profile, query)
// pair: the single-plan flock encoding Search executes, plus the
// query-scoped vet diagnostics.
type QueryVerdict struct {
	// Encoded is the flock encoded into a single query (Section 6.2);
	// nil when ConflictErr is set. Consumers must not mutate it.
	Encoded *tpq.Query
	// Applied lists the scoping rules applied during encoding.
	Applied []string
	// Diags is VetQuery's output.
	Diags []analysis.Diagnostic
	// ConflictErr is the Section 5.1 rejection (conflict cycle), nil
	// when an application order exists.
	ConflictErr error
}

// AnalysisCacheStats is a snapshot of cache behavior plus the cumulative
// per-diagnostic-class counts observed by fills — the source for the
// /metrics counters.
type AnalysisCacheStats struct {
	Hits, Misses, Coalesced int64
	Evictions               int64
	Entries, Capacity       int
	// Diagnostics maps check ID -> number of diagnostics produced by
	// analysis fills (each unique profile/query analyzed counts once,
	// not once per request — cache hits don't re-count).
	Diagnostics map[string]uint64
}

// AnalysisCache memoizes ProfileVerdict and QueryVerdict values in one
// detached-fill lru.Cache: the fill runs detached from the triggering
// request's context, so a follower outlives a cancelled leader.
type AnalysisCache struct {
	verdicts *lru.Cache[any]

	mu         sync.Mutex // guards diagCounts
	diagCounts map[string]uint64
}

// NewAnalysisCache returns a cache holding up to capacity verdicts
// (minimum 2: a profile verdict and one query verdict).
func NewAnalysisCache(capacity int) *AnalysisCache {
	return &AnalysisCache{
		verdicts:   lru.NewDetached[any](max(capacity, 2)),
		diagCounts: make(map[string]uint64),
	}
}

// ProfileVerdict returns the memoized profile-scoped analysis of p.
func (c *AnalysisCache) ProfileVerdict(ctx context.Context, p *profile.Profile) (*ProfileVerdict, error) {
	fp := ProfileFingerprint(p)
	v, _, err := c.verdicts.Do(ctx, "p\x1f"+fp, func() (any, error) {
		pv := &ProfileVerdict{Fingerprint: fp, Diags: analysis.VetProfile(p), AmbiguityErr: ambiguityErr(p)}
		c.RecordDiagnostics(pv.Diags)
		return pv, nil
	})
	if err != nil {
		return nil, err
	}
	return v.(*ProfileVerdict), nil
}

// QueryVerdict returns the memoized (profile, query) analysis: the
// single-plan flock encoding plus query-scoped diagnostics.
func (c *AnalysisCache) QueryVerdict(ctx context.Context, p *profile.Profile, q *tpq.Query) (*QueryVerdict, error) {
	key := "q\x1f" + ProfileFingerprint(p) + "\x1f" + q.String()
	v, _, err := c.verdicts.Do(ctx, key, func() (any, error) {
		qv := &QueryVerdict{Diags: analysis.VetQuery(p, q)}
		qv.Encoded, qv.Applied, qv.ConflictErr = analysis.EncodeFlock(p.SRs, q)
		c.RecordDiagnostics(qv.Diags)
		return qv, nil
	})
	if err != nil {
		return nil, err
	}
	return v.(*QueryVerdict), nil
}

// RecordDiagnostics folds diagnostics into the per-class counters. Fills
// call it once per analysis; the serving layer also uses it for findings
// that never reach a fill (e.g. a duplicate-identifier rejection raised
// during profile parsing, before analysis can run).
func (c *AnalysisCache) RecordDiagnostics(ds []analysis.Diagnostic) {
	c.mu.Lock()
	for _, d := range ds {
		c.diagCounts[d.ID]++
	}
	c.mu.Unlock()
}

// Stats snapshots the counters. The Diagnostics map is a copy.
func (c *AnalysisCache) Stats() AnalysisCacheStats {
	st := c.verdicts.Stats()
	c.mu.Lock()
	defer c.mu.Unlock()
	return AnalysisCacheStats{st.Hits, st.Misses, st.Coalesced, st.Evictions, st.Entries, st.Capacity, maps.Clone(c.diagCounts)}
}
