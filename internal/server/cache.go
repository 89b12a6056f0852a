// Result caching for the serving layer. The server memoizes marshaled
// search bodies in an inline-fill lru.Cache keyed by
// engine.Request.CacheKey (document fingerprint + canonical query +
// canonical profile + resolved options), so a hit is byte-identical to
// a cold execution. The names below keep the cache's API importable
// from this package.
package server

import "repro/internal/lru"

// ResultCache is an inline-fill cache of opaque payloads; values MUST
// be treated as immutable once stored — hits share them.
type ResultCache = lru.Cache[any]

// CacheStats is a snapshot of a result cache's counters.
type CacheStats = lru.Stats

// Outcome says how a cache lookup obtained its value; upper-cased, its
// String is the X-Cache header value.
type Outcome = lru.Outcome

const (
	Miss      = lru.Miss
	Hit       = lru.Hit
	Coalesced = lru.Coalesced
	TagAll    = lru.TagAll // fan-out entries: any mutation drops them
)

// NewResultCache returns a result cache of capacity entries (minimum 1).
func NewResultCache(capacity int) *ResultCache { return lru.New[any](capacity) }
