package lru

import (
	"context"
	"errors"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"
)

func fillConst(v any) func() (any, error) {
	return func() (any, error) { return v, nil }
}

func TestCacheDoBasics(t *testing.T) {
	c := New[any](4)
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

	if _, out, _ := c.Do(ctx, "missing", fillConst(2)); out != Miss {
		t.Fatalf("Do(missing) outcome = %v, want miss", out)
	}
	if c.Len() != 2 {
		t.Fatalf("Len = %d, want 2", c.Len())
	}
}

func TestCacheEviction(t *testing.T) {
	c := New[any](2)
	ctx := context.Background()
	c.Do(ctx, "a", fillConst("a"))
	c.Do(ctx, "b", fillConst("b"))
	c.Do(ctx, "a", fillConst(nil)) // touch a: b becomes the LRU victim
	c.Do(ctx, "c", fillConst("c"))

	for _, k := range []string{"a", "c"} {
		if _, out, _ := c.Do(ctx, k, fillConst(nil)); out != Hit {
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
	if v, _, _ := c.Do(ctx, "a", fillConst(nil)); v != "a2" || c.Len() != 2 {
		t.Errorf("refresh: Do(a) = %v, Len = %d; want a2, 2", v, c.Len())
	}

	if _, out, _ := c.Do(ctx, "b", fillConst("b")); out != Miss {
		t.Error("LRU victim b survived")
	}
}

func TestCacheZeroCapacity(t *testing.T) {
	c := New[any](0) // clamped to 1
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
	c := New[any](4)
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
	c := New[any](4)
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
	c := New[any](4)

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
	c2 := New[any](4)
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
	c := New[any](4)
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
		coalesced := c.st.Coalesced
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

// TestDetachedFollowerOutlivesLeader: the goroutine that triggers a
// detached fill cancelling its context must not abort the fill — a
// later waiter still receives the value.
func TestDetachedFollowerOutlivesLeader(t *testing.T) {
	c := NewDetached[any](4)
	started := make(chan struct{})
	release := make(chan struct{})

	leaderCtx, cancel := context.WithCancel(context.Background())
	leaderErr := make(chan error, 1)
	go func() {
		_, _, err := c.Do(leaderCtx, "k", func() (any, error) {
			close(started)
			<-release
			return "value", nil
		})
		leaderErr <- err
	}()
	<-started
	cancel() // leader gives up mid-fill

	if err := <-leaderErr; err != context.Canceled {
		t.Fatalf("leader error = %v, want context.Canceled", err)
	}

	// Follower joins the (still running) fill with a live context.
	followerDone := make(chan any, 1)
	go func() {
		v, _, err := c.Do(context.Background(), "k", func() (any, error) {
			t.Error("follower must coalesce, not refill")
			return nil, nil
		})
		if err != nil {
			t.Error(err)
		}
		followerDone <- v
	}()

	// Give the follower time to register as coalesced, then finish the
	// fill.
	deadline := time.Now().Add(2 * time.Second)
	for c.Stats().Coalesced == 0 {
		if time.Now().After(deadline) {
			t.Fatal("follower never coalesced")
		}
		time.Sleep(time.Millisecond)
	}
	close(release)

	if v := <-followerDone; v != "value" {
		t.Fatalf("follower got %v", v)
	}
	if _, _, err := c.Do(context.Background(), "k", func() (any, error) {
		t.Error("value must be cached after the fill")
		return nil, nil
	}); err != nil {
		t.Fatal(err)
	}
}

// TestDetachedPanickingFill: a detached fill that panics runs on a
// goroutine no caller can recover, so the cache recovers it. Every
// waiter receives a *PanicError wrapping the panic value, nothing is
// cached, the next caller refills the key, and the fill goroutine
// exits.
func TestDetachedPanickingFill(t *testing.T) {
	before := runtime.NumGoroutine()
	c := NewDetached[string](4)
	boom := errors.New("fill blew up")
	gate := make(chan struct{})

	const waiters = 4
	errs := make(chan error, waiters)
	outcomes := make(chan Outcome, waiters)
	do := func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_, out, err := c.Do(ctx, "k", func() (string, error) {
			<-gate
			panic(boom)
		})
		errs <- err
		outcomes <- out
	}
	go do()
	for c.Stats().Misses == 0 {
		runtime.Gosched()
	}
	for i := 1; i < waiters; i++ {
		go do()
	}
	for c.Stats().Coalesced < waiters-1 {
		runtime.Gosched()
	}
	close(gate)

	misses := 0
	for i := 0; i < waiters; i++ {
		err := <-errs
		var pe *PanicError
		if !errors.As(err, &pe) || pe.Value != boom || !errors.Is(err, boom) || !strings.Contains(err.Error(), boom.Error()) {
			t.Errorf("waiter err = %v, want a *PanicError wrapping the panic value", err)
		}
		if <-outcomes == Miss {
			misses++
		}
	}
	if misses != 1 {
		t.Errorf("%d waiters led the fill, want 1 (the rest share its error)", misses)
	}
	if c.Len() != 0 {
		t.Fatalf("Len = %d after a panicking fill, want 0", c.Len())
	}

	ctx := context.Background()
	if v, out, err := c.Do(ctx, "k", func() (string, error) { return "later", nil }); err != nil || v != "later" || out != Miss {
		t.Fatalf("refill = (%v, %v, %v), want (later, miss, nil)", v, out, err)
	}
	if v, out, err := c.Do(ctx, "k", func() (string, error) { return "", errors.New("must hit") }); err != nil || v != "later" || out != Hit {
		t.Fatalf("after refill = (%v, %v, %v), want (later, hit, nil)", v, out, err)
	}

	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			n := runtime.Stack(buf, true)
			t.Fatalf("goroutine leak: %d before, %d after\n%s", before, runtime.NumGoroutine(), buf[:n])
		}
		time.Sleep(time.Millisecond)
	}
}

// TestInvalidateTags: Invalidate drops exactly the entries tagged with
// a named tag plus every TagAll entry, leaves the rest, and keeps the
// tag index in step with LRU eviction.
func TestInvalidateTags(t *testing.T) {
	c := New[any](4)
	ctx := context.Background()
	c.DoTagged(ctx, "a1", []string{"a"}, fillConst(1))
	c.DoTagged(ctx, "ab", []string{"a", "b"}, fillConst(2))
	c.DoTagged(ctx, "all", []string{TagAll}, fillConst(3))
	c.Do(ctx, "plain", fillConst(4))

	if n := c.Invalidate("a"); n != 3 {
		t.Fatalf("Invalidate(a) = %d, want 3 (a1, ab and the TagAll entry)", n)
	}
	if c.Len() != 1 {
		t.Fatalf("Len = %d, want 1 (the untagged entry)", c.Len())
	}
	if _, out, _ := c.Do(ctx, "plain", fillConst(nil)); out != Hit {
		t.Error("untagged entry was invalidated")
	}
	if n := c.Invalidate("b"); n != 0 {
		t.Errorf("Invalidate(b) = %d after ab was dropped, want 0", n)
	}

	// An entry evicted by LRU pressure leaves the tag index with it.
	c.DoTagged(ctx, "b1", []string{"b"}, fillConst(5))
	for _, k := range []string{"x", "y", "z", "w"} {
		c.Do(ctx, k, fillConst(k))
	}
	if n := c.Invalidate("b"); n != 0 {
		t.Errorf("Invalidate(b) = %d after b1 was evicted, want 0", n)
	}
	if st := c.Stats(); st.Invalidations != 3 || len(c.tagged) != 0 {
		t.Errorf("stats = %+v, tag index %v; want 3 invalidations and an empty index", st, c.tagged)
	}
}
