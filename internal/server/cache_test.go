package server

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"
)

func fillConst(v any) func() (any, error) {
	return func() (any, error) { return v, nil }
}

func TestCacheDoBasics(t *testing.T) {
	c := NewResultCache(4)
	ctx := context.Background()

	v, out, err := c.Do(ctx, "a", fillConst(1))
	if err != nil || out != Miss || v != 1 {
		t.Fatalf("first Do = (%v, %v, %v), want (1, Miss, nil)", v, out, err)
	}
	v, out, err = c.Do(ctx, "a", func() (any, error) {
		t.Fatal("fill must not run on a hit")
		return nil, nil
	})
	if err != nil || out != Hit || v != 1 {
		t.Fatalf("second Do = (%v, %v, %v), want (1, Hit, nil)", v, out, err)
	}

	if v, ok := c.Get("a"); !ok || v != 1 {
		t.Fatalf("Get(a) = (%v, %v), want (1, true)", v, ok)
	}
	if _, ok := c.Get("missing"); ok {
		t.Fatal("Get(missing) = true")
	}
	if c.Len() != 1 {
		t.Fatalf("Len = %d, want 1", c.Len())
	}

	c.Purge()
	if c.Len() != 0 {
		t.Fatalf("Len after Purge = %d, want 0", c.Len())
	}
	if _, ok := c.Get("a"); ok {
		t.Fatal("entry survived Purge")
	}
}

func TestCacheEviction(t *testing.T) {
	c := NewResultCache(2)
	ctx := context.Background()
	c.Do(ctx, "a", fillConst("a"))
	c.Do(ctx, "b", fillConst("b"))
	c.Do(ctx, "a", fillConst(nil)) // touch a: b becomes the LRU victim
	c.Do(ctx, "c", fillConst("c"))

	if _, ok := c.Get("b"); ok {
		t.Error("LRU victim b survived")
	}
	for _, k := range []string{"a", "c"} {
		if _, ok := c.Get(k); !ok {
			t.Errorf("entry %s was evicted", k)
		}
	}
	st := c.Stats()
	if st.Evictions != 1 || st.Entries != 2 || st.Capacity != 2 {
		t.Errorf("stats = %+v, want 1 eviction, 2/2 entries", st)
	}

	// Refreshing an existing key must not grow the cache.
	c.mu.Lock()
	c.putLocked("a", "a2", nil)
	c.mu.Unlock()
	if v, _ := c.Get("a"); v != "a2" || c.Len() != 2 {
		t.Errorf("refresh: Get(a) = %v, Len = %d; want a2, 2", v, c.Len())
	}
}

func TestCacheZeroCapacity(t *testing.T) {
	c := NewResultCache(0) // clamped to 1
	ctx := context.Background()
	c.Do(ctx, "a", fillConst(1))
	c.Do(ctx, "b", fillConst(2))
	if c.Len() != 1 {
		t.Fatalf("Len = %d, want 1 (capacity clamp)", c.Len())
	}
	if c.Stats().Capacity != 1 {
		t.Fatalf("Capacity = %d, want 1", c.Stats().Capacity)
	}
}

func TestCacheErrorsNotCached(t *testing.T) {
	c := NewResultCache(4)
	ctx := context.Background()
	boom := errors.New("boom")
	calls := 0
	fail := func() (any, error) { calls++; return nil, boom }

	if _, _, err := c.Do(ctx, "k", fail); !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
	if _, _, err := c.Do(ctx, "k", fail); !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
	if calls != 2 {
		t.Fatalf("fill ran %d times, want 2 (errors are never cached)", calls)
	}
	if c.Len() != 0 {
		t.Fatalf("Len = %d after failures, want 0", c.Len())
	}
}

// TestCacheSingleFlight checks the admission contract under
// contention: one fill per key no matter how many concurrent callers,
// followers coalesce onto the leader's result.
func TestCacheSingleFlight(t *testing.T) {
	c := NewResultCache(4)
	ctx := context.Background()

	gate := make(chan struct{})
	var fills int
	var fillMu sync.Mutex
	fill := func() (any, error) {
		fillMu.Lock()
		fills++
		fillMu.Unlock()
		<-gate
		return "value", nil
	}

	const callers = 8
	outcomes := make([]Outcome, callers)
	vals := make([]any, callers)
	var wg sync.WaitGroup
	var started sync.WaitGroup
	for i := 0; i < callers; i++ {
		wg.Add(1)
		started.Add(1)
		go func(i int) {
			defer wg.Done()
			started.Done()
			v, out, err := c.Do(ctx, "k", fill)
			if err != nil {
				t.Errorf("caller %d: %v", i, err)
			}
			vals[i], outcomes[i] = v, out
		}(i)
	}
	started.Wait()
	close(gate) // release the leader; followers coalesce
	wg.Wait()

	if fills != 1 {
		t.Fatalf("fill ran %d times, want 1", fills)
	}
	miss, coalesced, hit := 0, 0, 0
	for i, out := range outcomes {
		if vals[i] != "value" {
			t.Errorf("caller %d got %v", i, vals[i])
		}
		switch out {
		case Miss:
			miss++
		case Coalesced:
			coalesced++
		case Hit:
			hit++
		}
	}
	if miss != 1 {
		t.Errorf("outcomes: %d misses (%d coalesced, %d hits), want exactly 1 miss",
			miss, coalesced, hit)
	}
	if miss+coalesced+hit != callers {
		t.Errorf("outcomes don't add up: %d+%d+%d != %d", miss, coalesced, hit, callers)
	}
}

// TestCacheFollowerOutlivesFailedLeader: a leader failing with its own
// deadline error must not poison a follower that still has time — the
// follower retries as the new leader.
func TestCacheFollowerOutlivesFailedLeader(t *testing.T) {
	c := NewResultCache(4)

	gate := make(chan struct{})
	leaderFill := func() (any, error) {
		<-gate
		return nil, context.DeadlineExceeded
	}

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		if _, _, err := c.Do(context.Background(), "k", leaderFill); !errors.Is(err, context.DeadlineExceeded) {
			t.Errorf("leader err = %v", err)
		}
	}()

	// Wait until the leader's flight is registered.
	for {
		c.mu.Lock()
		_, inFlight := c.flight["k"]
		c.mu.Unlock()
		if inFlight {
			break
		}
	}

	followerDone := make(chan struct{})
	go func() {
		defer close(followerDone)
		v, out, err := c.Do(context.Background(), "k", fillConst("fresh"))
		if err != nil || v != "fresh" {
			t.Errorf("follower = (%v, %v, %v), want (fresh, _, nil)", v, out, err)
		}
	}()

	close(gate)
	wg.Wait()
	<-followerDone

	// A follower whose own context dies while waiting gets that error.
	c2 := NewResultCache(4)
	gate2 := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		c2.Do(context.Background(), "k", func() (any, error) { <-gate2; return 1, nil })
	}()
	for {
		c2.mu.Lock()
		_, inFlight := c2.flight["k"]
		c2.mu.Unlock()
		if inFlight {
			break
		}
	}
	cctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, _, err := c2.Do(cctx, "k", fillConst(2)); !errors.Is(err, context.Canceled) {
		t.Errorf("dead follower err = %v, want context.Canceled", err)
	}
	close(gate2)
	wg.Wait()
}

// TestCachePanickingFillDoesNotPoisonKey: a fill that panics must
// still retire its flight. The panic reaches the leader's caller
// unchanged, a follower already waiting retries as the next leader, and
// a later caller fills the key afresh instead of waiting on a flight
// that will never complete.
func TestCachePanickingFillDoesNotPoisonKey(t *testing.T) {
	c := NewResultCache(4)
	gate := make(chan struct{})
	leaderPanic := make(chan any, 1)
	go func() {
		defer func() { leaderPanic <- recover() }()
		c.Do(context.Background(), "k", func() (any, error) {
			<-gate
			panic("fill blew up")
		})
	}()
	for {
		c.mu.Lock()
		_, inFlight := c.flight["k"]
		c.mu.Unlock()
		if inFlight {
			break
		}
	}

	followerDone := make(chan struct{})
	go func() {
		defer close(followerDone)
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		v, out, err := c.Do(ctx, "k", fillConst("follower"))
		if err != nil || v != "follower" || out != Miss {
			t.Errorf("waiting follower = (%v, %v, %v), want (follower, miss, nil)", v, out, err)
		}
	}()
	// Let the follower park on the flight before the leader panics.
	for {
		c.mu.Lock()
		coalesced := c.coalesced
		c.mu.Unlock()
		if coalesced > 0 {
			break
		}
		runtime.Gosched()
	}
	close(gate)
	if r := <-leaderPanic; r != "fill blew up" {
		t.Fatalf("leader recovered %v, want the fill's own panic value", r)
	}
	<-followerDone

	c.mu.Lock()
	_, stuck := c.flight["k"]
	c.mu.Unlock()
	if stuck {
		t.Fatal("panicked flight still registered")
	}

	// A panic on a fresh key with no followers: the next caller leads.
	func() {
		defer func() { recover() }()
		c.Do(context.Background(), "p", func() (any, error) { panic("again") })
	}()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if v, out, err := c.Do(ctx, "p", fillConst("later")); err != nil || v != "later" || out != Miss {
		t.Fatalf("later caller = (%v, %v, %v), want (later, miss, nil)", v, out, err)
	}
}

func TestOutcomeString(t *testing.T) {
	for out, want := range map[Outcome]string{Miss: "miss", Hit: "hit", Coalesced: "coalesced"} {
		if got := out.String(); got != want {
			t.Errorf("%d.String() = %q, want %q", out, got, want)
		}
	}
	if got := fmt.Sprint(Outcome(99)); got == "" {
		t.Error("unknown outcome prints empty")
	}
}
