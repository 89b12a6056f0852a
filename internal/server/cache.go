// Result caching for the serving layer: a fixed-capacity LRU with
// single-flight admission.
//
// Personalization makes caching unusually valuable: every profile
// rewrites every query into a flock, so the same (document, query,
// profile, options) tuple re-executes the same multi-operator plan on
// every repeat — and personalized home-page-style queries repeat a lot.
// The cache is keyed by engine.Request.CacheKey (document fingerprint +
// canonical query + canonical profile + resolved options), so a hit is
// guaranteed byte-identical to a cold execution.
//
// Single-flight: when a thundering herd of identical requests arrives,
// exactly one (the leader) executes; the rest (followers) block on the
// leader's completion and share its result. A leader's *error* is never
// shared — a follower whose leader failed (e.g. the leader's own
// deadline expired first) retries and may become the next leader, so a
// follower with a healthy context is never poisoned by a sick one.
package server

import (
	"container/list"
	"context"
	"errors"
	"sync"
)

// Outcome says how a ResultCache.Do call obtained its value.
type Outcome uint8

const (
	// Miss: this call executed the fill function (it was the leader).
	Miss Outcome = iota
	// Hit: the value was already cached.
	Hit
	// Coalesced: an in-flight leader's execution was shared.
	Coalesced
)

func (o Outcome) String() string {
	switch o {
	case Hit:
		return "hit"
	case Coalesced:
		return "coalesced"
	}
	return "miss"
}

// CacheStats is a snapshot of the cache's counters.
type CacheStats struct {
	Hits      int64 `json:"hits"`
	Misses    int64 `json:"misses"`
	Coalesced int64 `json:"coalesced"`
	Evictions int64 `json:"evictions"`
	// Invalidations counts entries dropped by Invalidate — targeted
	// eviction after a document mutation, as opposed to LRU pressure.
	Invalidations int64 `json:"invalidations"`
	Entries       int   `json:"entries"`
	Capacity      int   `json:"capacity"`
}

// TagAll marks an entry as depending on every document (fan-out
// searches): Invalidate for any tag also drops entries tagged TagAll.
const TagAll = "*"

type cacheEntry struct {
	key string
	val any
	// tags name the documents this entry's result depends on; a
	// mutation of any of them invalidates the entry. Nil entries are
	// untaggable (legacy Do path) and only age out by LRU.
	tags []string
}

// flight is one in-progress fill: followers wait on done, then read
// val/err (the close of done publishes them).
type flight struct {
	done chan struct{}
	val  any
	err  error
}

// ResultCache is the LRU + single-flight combination. Values are opaque
// (the serving layer stores marshaled response payloads; the library
// layer stores *engine.Response) and MUST be treated as immutable once
// stored — hits share the stored value.
type ResultCache struct {
	mu     sync.Mutex
	cap    int
	ll     *list.List // front = most recently used
	items  map[string]*list.Element
	flight map[string]*flight
	// tagged is the reverse tag index: tag -> set of resident keys. It
	// makes Invalidate O(entries dropped), not O(cache size).
	tagged map[string]map[string]struct{}

	hits, misses, coalesced, evictions, invalidations int64
}

// NewResultCache returns a cache holding up to capacity entries
// (minimum 1).
func NewResultCache(capacity int) *ResultCache {
	if capacity < 1 {
		capacity = 1
	}
	return &ResultCache{
		cap:    capacity,
		ll:     list.New(),
		items:  make(map[string]*list.Element),
		flight: make(map[string]*flight),
		tagged: make(map[string]map[string]struct{}),
	}
}

// Do returns the cached value for key, or executes fill (once across
// all concurrent callers of the same key) and caches its result with
// no tags (the entry only ages out by LRU; see DoTagged).
// Errors are returned to the leader and any followers already waiting,
// but never cached. A follower abandons the wait when ctx is done and
// returns ctx's error.
func (c *ResultCache) Do(ctx context.Context, key string, fill func() (any, error)) (any, Outcome, error) {
	return c.DoTagged(ctx, key, nil, fill)
}

// DoTagged is Do with document tags: a successfully filled entry is
// registered under each tag, and a later Invalidate of any of those
// tags (or of any tag at all, for entries tagged TagAll) drops it.
func (c *ResultCache) DoTagged(ctx context.Context, key string, tags []string, fill func() (any, error)) (any, Outcome, error) {
	for {
		c.mu.Lock()
		if el, ok := c.items[key]; ok {
			c.ll.MoveToFront(el)
			v := el.Value.(*cacheEntry).val
			c.hits++
			c.mu.Unlock()
			return v, Hit, nil
		}
		if fl, ok := c.flight[key]; ok {
			c.coalesced++
			c.mu.Unlock()
			select {
			case <-fl.done:
				if fl.err == nil {
					return fl.val, Coalesced, nil
				}
				// The leader failed. Its error may be all about the
				// leader (its deadline, its disconnect), so retry with
				// our own context rather than inherit it.
				if ctx.Err() != nil {
					return nil, Coalesced, ctx.Err()
				}
				continue
			case <-ctx.Done():
				return nil, Coalesced, ctx.Err()
			}
		}
		fl := &flight{done: make(chan struct{})}
		c.flight[key] = fl
		c.misses++
		c.mu.Unlock()

		val, err := c.lead(key, tags, fl, fill)
		return val, Miss, err
	}
}

// errFillPanicked is the flight error followers see when the leader's
// fill panicked; like any leader error it sends them back to retry.
var errFillPanicked = errors.New("server: cache fill panicked")

// lead runs fill as key's leader and completes the flight in a defer,
// so a panicking fill still retires the flight (followers and later
// callers retry as leaders instead of waiting forever on a dead key)
// while the panic itself propagates to the leader's caller unchanged.
func (c *ResultCache) lead(key string, tags []string, fl *flight, fill func() (any, error)) (any, error) {
	fl.err = errFillPanicked // overwritten below unless fill panics
	defer func() {
		c.mu.Lock()
		delete(c.flight, key)
		if fl.err == nil {
			c.putLocked(key, fl.val, tags)
		}
		c.mu.Unlock()
		close(fl.done)
	}()
	fl.val, fl.err = fill()
	return fl.val, fl.err
}

// Get returns the cached value for key without filling.
func (c *ResultCache) Get(key string) (any, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.items[key]
	if !ok {
		return nil, false
	}
	c.ll.MoveToFront(el)
	c.hits++
	return el.Value.(*cacheEntry).val, true
}

// putLocked inserts or refreshes key; callers hold c.mu.
func (c *ResultCache) putLocked(key string, val any, tags []string) {
	if el, ok := c.items[key]; ok {
		e := el.Value.(*cacheEntry)
		c.untagLocked(e)
		e.val = val
		e.tags = tags
		c.tagLocked(e)
		c.ll.MoveToFront(el)
		return
	}
	e := &cacheEntry{key: key, val: val, tags: tags}
	c.items[key] = c.ll.PushFront(e)
	c.tagLocked(e)
	for c.ll.Len() > c.cap {
		back := c.ll.Back()
		c.ll.Remove(back)
		victim := back.Value.(*cacheEntry)
		c.untagLocked(victim)
		delete(c.items, victim.key)
		c.evictions++
	}
}

// tagLocked registers e under each of its tags; callers hold c.mu.
func (c *ResultCache) tagLocked(e *cacheEntry) {
	for _, t := range e.tags {
		set, ok := c.tagged[t]
		if !ok {
			set = make(map[string]struct{})
			c.tagged[t] = set
		}
		set[e.key] = struct{}{}
	}
}

// untagLocked removes e from the tag index; callers hold c.mu.
func (c *ResultCache) untagLocked(e *cacheEntry) {
	for _, t := range e.tags {
		set := c.tagged[t]
		delete(set, e.key)
		if len(set) == 0 {
			delete(c.tagged, t)
		}
	}
}

// Invalidate drops every entry tagged with any of the given document
// tags — plus every entry tagged TagAll (fan-out results depend on the
// whole registry) — and returns the number of entries dropped. Entries
// for untouched documents are left alone: this is the targeted,
// generation-precise eviction a document mutation triggers. In-flight
// fills are unaffected; their keys carry the old generation-stamped
// fingerprint, so once stored they can never be read by requests keyed
// against the new snapshot.
func (c *ResultCache) Invalidate(tags ...string) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	keys := make(map[string]struct{})
	for _, t := range append(tags, TagAll) {
		for k := range c.tagged[t] {
			keys[k] = struct{}{}
		}
	}
	for k := range keys {
		el, ok := c.items[k]
		if !ok {
			continue
		}
		e := el.Value.(*cacheEntry)
		c.untagLocked(e)
		c.ll.Remove(el)
		delete(c.items, k)
		c.invalidations++
	}
	return len(keys)
}

// Len returns the number of cached entries.
func (c *ResultCache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
}

// Purge drops every cached entry (in-flight fills are unaffected).
func (c *ResultCache) Purge() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.ll.Init()
	c.items = make(map[string]*list.Element)
	c.tagged = make(map[string]map[string]struct{})
}

// Stats returns a snapshot of the cache counters.
func (c *ResultCache) Stats() CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return CacheStats{
		Hits:          c.hits,
		Misses:        c.misses,
		Coalesced:     c.coalesced,
		Evictions:     c.evictions,
		Invalidations: c.invalidations,
		Entries:       c.ll.Len(),
		Capacity:      c.cap,
	}
}
