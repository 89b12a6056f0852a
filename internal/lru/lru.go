// Package lru is the module's one memo table: a fixed-capacity LRU with
// single-flight fills and optional document tags. Concurrent callers of
// a missing key share one fill: the caller that starts it leads, the
// rest (followers) wait and coalesce onto its result. Errors are never
// cached. The fill mode is fixed when the cache is built:
//
//   - Inline (New): the leader runs the fill under its own context. Its
//     error may be all about the leader (its deadline, its disconnect),
//     so followers retry under their own context. A panicking fill
//     still retires its flight and the panic propagates to the leader.
//   - Detached (NewDetached): the fill runs on its own goroutine under
//     no caller's context, so a leader that gives up returns at once
//     while the fill finishes for the followers. Its outcome is every
//     waiter's: a panic is recovered into a *PanicError for each of
//     them, and the next call refills.
package lru

import (
	"container/list"
	"context"
	"errors"
	"fmt"
	"sync"
)

// Outcome says how a Do call obtained its value.
type Outcome uint8

const (
	Miss      Outcome = iota // this call started the fill
	Hit                      // the value was already cached
	Coalesced                // an in-flight fill's result was shared
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

// Stats is a snapshot of the cache's counters.
type Stats struct {
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

// PanicError is the error a detached fill's waiters receive when the
// fill panicked. It wraps the panic value when that value is an error.
type PanicError struct{ Value any }

func (p *PanicError) Error() string { return fmt.Sprintf("lru: cache fill panicked: %v", p.Value) }

func (p *PanicError) Unwrap() error {
	err, _ := p.Value.(error)
	return err
}

// errFillPanicked is the flight error an inline fill's followers see
// when it panicked; like any inline error it sends them to retry.
var errFillPanicked = errors.New("lru: cache fill panicked")

// entry is one cached value; tags name the documents it depends on.
type entry[V any] struct {
	key  string
	val  V
	tags []string
}

// flight is one in-progress fill; closing done publishes val and err.
type flight[V any] struct {
	done chan struct{}
	val  V
	err  error
}

// Cache is the LRU + single-flight combination. Stored values MUST be
// treated as immutable: hits share them.
type Cache[V any] struct {
	mu       sync.Mutex
	cap      int
	detached bool
	ll       *list.List // of *entry[V]; front = most recently used
	items    map[string]*list.Element
	flight   map[string]*flight[V]
	// tagged is the reverse tag index: tag -> set of resident keys. It
	// makes Invalidate O(entries dropped), not O(cache size).
	tagged map[string]map[string]struct{}
	st     Stats // counters; Entries and Capacity are filled by Stats
}

// New returns an inline-fill cache of capacity entries (minimum 1).
func New[V any](capacity int) *Cache[V] { return newCache[V](capacity, false) }

// NewDetached returns a detached-fill cache of capacity entries (min 1).
func NewDetached[V any](capacity int) *Cache[V] { return newCache[V](capacity, true) }

func newCache[V any](capacity int, detached bool) *Cache[V] {
	return &Cache[V]{
		cap:      max(capacity, 1),
		detached: detached,
		ll:       list.New(),
		items:    make(map[string]*list.Element),
		flight:   make(map[string]*flight[V]),
		tagged:   make(map[string]map[string]struct{}),
	}
}

// Do is DoTagged with no tags: the entry only ages out by LRU.
func (c *Cache[V]) Do(ctx context.Context, key string, fill func() (V, error)) (V, Outcome, error) {
	return c.DoTagged(ctx, key, nil, fill)
}

// DoTagged returns the cached value for key, or runs fill (once across
// all concurrent callers of the same key) and caches a successful
// result under each of tags. A waiter whose ctx is done stops waiting
// and returns ctx's error.
func (c *Cache[V]) DoTagged(ctx context.Context, key string, tags []string, fill func() (V, error)) (V, Outcome, error) {
	var zero V
	for {
		c.mu.Lock()
		if el, ok := c.items[key]; ok {
			c.ll.MoveToFront(el)
			v := el.Value.(*entry[V]).val
			c.st.Hits++
			c.mu.Unlock()
			return v, Hit, nil
		}
		if fl, ok := c.flight[key]; ok {
			c.st.Coalesced++
			c.mu.Unlock()
			select {
			case <-fl.done:
				if fl.err == nil || c.detached {
					return fl.val, Coalesced, fl.err
				}
				if ctx.Err() != nil {
					return zero, Coalesced, ctx.Err()
				}
				continue // the inline leader failed: retry, maybe as leader
			case <-ctx.Done():
				return zero, Coalesced, ctx.Err()
			}
		}
		fl := &flight[V]{done: make(chan struct{})}
		c.flight[key] = fl
		c.st.Misses++
		c.mu.Unlock()

		if !c.detached {
			c.run(key, tags, fl, fill)
			return fl.val, Miss, fl.err
		}
		//pimento:allow budgetedgo single-flight fill: at most one detached goroutine per missing key (bounded by the flight map), so duplicate waiters share it instead of multiplying work
		go c.run(key, tags, fl, fill)
		select {
		case <-fl.done:
			return fl.val, Miss, fl.err
		case <-ctx.Done():
			return zero, Miss, ctx.Err()
		}
	}
}

// run executes fill for key's flight and completes the flight in a
// defer, so a panicking fill still retires it instead of leaving later
// callers waiting on a dead key. In detached mode the deferred recover
// runs first and turns the panic into the flight's error; inline, the
// panic propagates to the leader.
func (c *Cache[V]) run(key string, tags []string, fl *flight[V], fill func() (V, error)) {
	defer func() {
		c.mu.Lock()
		delete(c.flight, key)
		if fl.err == nil {
			c.putLocked(key, fl.val, tags)
		}
		c.mu.Unlock()
		close(fl.done)
	}()
	if c.detached {
		defer func() {
			if r := recover(); r != nil {
				fl.err = &PanicError{Value: r}
			}
		}()
	}
	fl.err = errFillPanicked // overwritten below unless fill panics
	fl.val, fl.err = fill()
}

// putLocked stores key at the front, evicting past capacity (holds mu).
func (c *Cache[V]) putLocked(key string, val V, tags []string) {
	if el, ok := c.items[key]; ok {
		c.removeLocked(el)
	}
	c.items[key] = c.ll.PushFront(&entry[V]{key: key, val: val, tags: tags})
	for _, t := range tags {
		if c.tagged[t] == nil {
			c.tagged[t] = make(map[string]struct{})
		}
		c.tagged[t][key] = struct{}{}
	}
	for c.ll.Len() > c.cap {
		c.removeLocked(c.ll.Back())
		c.st.Evictions++
	}
}

// removeLocked drops a resident entry and its tag index (holds mu).
func (c *Cache[V]) removeLocked(el *list.Element) {
	e := c.ll.Remove(el).(*entry[V])
	delete(c.items, e.key)
	for _, t := range e.tags {
		delete(c.tagged[t], e.key)
		if len(c.tagged[t]) == 0 {
			delete(c.tagged, t)
		}
	}
}

// Invalidate drops every entry tagged with any of tags — plus every
// entry tagged TagAll — and returns the number dropped. In-flight
// fills are unaffected: callers key fills so that a value stored after
// an invalidation is never read by later requests (the server stamps
// keys with the document generation).
func (c *Cache[V]) Invalidate(tags ...string) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	before := c.st.Invalidations
	for _, t := range append(tags, TagAll) {
		for k := range c.tagged[t] {
			c.removeLocked(c.items[k])
			c.st.Invalidations++
		}
	}
	return int(c.st.Invalidations - before)
}

// Len returns the number of cached entries.
func (c *Cache[V]) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
}

// Stats returns a snapshot of the cache counters.
func (c *Cache[V]) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	st := c.st
	st.Entries, st.Capacity = c.ll.Len(), c.cap
	return st
}
