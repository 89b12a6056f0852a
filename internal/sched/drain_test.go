package sched

import (
	"bytes"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// grantBudget grants every token and counts both directions.
type grantBudget struct{ acquired, released atomic.Int64 }

func (b *grantBudget) TryAcquire() bool { b.acquired.Add(1); return true }
func (b *grantBudget) Release()         { b.released.Add(1) }

// TestDrainRunsEachIndexOnce: whatever the allowance — none, a denying
// budget, a small budget, an unlimited one — every index runs exactly
// once and every granted token comes back.
func TestDrainRunsEachIndexOnce(t *testing.T) {
	for _, n := range []int{0, 1, 5, 64} {
		for name, b := range map[string]Allowance{
			"nil":   nil,
			"deny":  NewBudget(0),
			"small": NewBudget(2),
			"grant": &grantBudget{},
		} {
			runs := make([]atomic.Int32, n)
			Drain(b, n, func(i int) { runs[i].Add(1) })
			for i := range runs {
				if got := runs[i].Load(); got != 1 {
					t.Errorf("%s n=%d: index %d ran %d times", name, n, i, got)
				}
			}
			switch bb := b.(type) {
			case *Budget:
				if bb.InUse() != 0 {
					t.Errorf("%s n=%d: %d tokens still held", name, n, bb.InUse())
				}
			case *grantBudget:
				if bb.acquired.Load() != bb.released.Load() || bb.acquired.Load() > int64(max(n-1, 0)) {
					t.Errorf("%s n=%d: acquired %d, released %d", name, n, bb.acquired.Load(), bb.released.Load())
				}
			}
		}
	}
}

// goid returns the current goroutine's id, parsed from its stack
// header ("goroutine 17 [running]:").
func goid() int64 {
	buf := make([]byte, 64)
	buf = buf[:runtime.Stack(buf, false)]
	buf = bytes.TrimPrefix(buf, []byte("goroutine "))
	id, _ := strconv.ParseInt(string(buf[:bytes.IndexByte(buf, ' ')]), 10, 64)
	return id
}

// TestDrainForwardsHelperPanic: a panic on a helper goroutine is
// recovered there, its token is returned, the caller finishes the
// queue, and the panic resurfaces on the caller's goroutine once every
// helper has exited — instead of killing the process.
func TestDrainForwardsHelperPanic(t *testing.T) {
	before := runtime.NumGoroutine()
	const n = 16
	b := &grantBudget{}
	caller := goid()
	var (
		ran       atomic.Int32
		helperHit = make(chan struct{})
		once      sync.Once
	)
	got := func() (r any) {
		defer func() { r = recover() }()
		Drain(b, n, func(i int) {
			ran.Add(1)
			if goid() != caller {
				once.Do(func() { close(helperHit) })
				panic("helper boom")
			}
			// Hold the caller's items until some helper has claimed
			// one, so the panic path is exercised on every run.
			select {
			case <-helperHit:
			case <-time.After(5 * time.Second):
				t.Error("no helper ever claimed an index")
			}
		})
		return nil
	}()
	if got != "helper boom" {
		t.Fatalf("caller recovered %v, want the helper's panic value", got)
	}
	if ran.Load() != n {
		t.Errorf("%d of %d indices ran: the surviving workers must finish the queue", ran.Load(), n)
	}
	if b.acquired.Load() == 0 || b.acquired.Load() != b.released.Load() {
		t.Errorf("tokens unbalanced: %d acquired, %d released", b.acquired.Load(), b.released.Load())
	}
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before {
		if time.Now().After(deadline) {
			t.Fatalf("goroutine leak: %d alive, want <= %d", runtime.NumGoroutine(), before)
		}
		time.Sleep(time.Millisecond)
	}
}
