// Package par provides the deterministic worker-pool primitives behind the
// measurement engine: an index-space fan-out with per-worker state
// (ForEach) and an errgroup-style task group with bounded concurrency
// (Group). Both are designed so callers can prove bit-identical results at
// any worker count: work is identified by index, outputs go into pre-sized
// slots, and error selection is by submission order rather than by
// completion order.
package par

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Workers resolves a worker-count knob: n > 0 is taken literally; zero or
// negative means GOMAXPROCS (the measurement engine's default).
func Workers(n int) int {
	if n > 0 {
		return n
	}
	return runtime.GOMAXPROCS(0)
}

// Pool is the number of goroutines ForEach(workers, n, …) runs:
// Workers(workers) capped at n. Callers size per-worker state with it.
func Pool(workers, n int) int {
	if w := Workers(workers); w < n {
		return w
	}
	return max(n, 0)
}

// ForEach runs fn(worker, i) for every i in [0, n), fanned across
// Pool(workers, n) goroutines. Indices are handed out by an atomic counter,
// so which worker executes which index varies between runs; determinism is
// the caller's contract: fn must write only to slot i of pre-sized outputs
// and to worker-private state indexed by `worker` (0 <= worker <
// Pool(workers, n)), merged by the caller afterwards in worker order.
//
// With a resolved worker count of 1 (or n <= 1) fn runs inline on the
// calling goroutine, which is exactly the pre-engine serial behavior. A
// panic in fn is re-raised on the calling goroutine after all workers
// drain, like a serial loop would.
func ForEach(workers, n int, fn func(worker, i int)) {
	if n <= 0 {
		return
	}
	w := Pool(workers, n)
	if w <= 1 {
		for i := 0; i < n; i++ {
			fn(0, i)
		}
		return
	}
	var (
		next    atomic.Int64
		wg      sync.WaitGroup
		panicMu sync.Mutex
		panicV  any
	)
	wg.Add(w)
	for id := 0; id < w; id++ {
		go func(id int) {
			defer wg.Done()
			defer func() {
				if r := recover(); r != nil {
					panicMu.Lock()
					if panicV == nil {
						panicV = r
					}
					panicMu.Unlock()
				}
			}()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				fn(id, i)
			}
		}(id)
	}
	wg.Wait()
	if panicV != nil {
		panic(panicV)
	}
}

// Group runs heterogeneous tasks with bounded concurrency and returns the
// first error by submission order (not completion order, which would make
// the reported error depend on scheduling). Go must be called from a
// single goroutine; Wait blocks until every submitted task finished.
type Group struct {
	sem chan struct{}
	wg  sync.WaitGroup

	mu     sync.Mutex
	errIdx int
	err    error
	panicV any

	submitted int
}

// NewGroup returns a Group running at most Workers(workers) tasks at once.
func NewGroup(workers int) *Group {
	return &Group{sem: make(chan struct{}, Workers(workers)), errIdx: -1}
}

// Go submits one task. It never blocks; the task waits for a worker slot.
func (g *Group) Go(fn func() error) {
	idx := g.submitted
	g.submitted++
	g.wg.Add(1)
	go func() {
		g.sem <- struct{}{}
		defer func() {
			if r := recover(); r != nil {
				g.mu.Lock()
				if g.panicV == nil {
					g.panicV = r
				}
				g.mu.Unlock()
			}
			<-g.sem
			g.wg.Done()
		}()
		if err := fn(); err != nil {
			g.mu.Lock()
			if g.errIdx == -1 || idx < g.errIdx {
				g.errIdx, g.err = idx, err
			}
			g.mu.Unlock()
		}
	}()
}

// Wait blocks until all tasks finish and returns the error of the
// earliest-submitted task that failed, if any. A task panic is re-raised
// here, on the coordinating goroutine.
func (g *Group) Wait() error {
	g.wg.Wait()
	if g.panicV != nil {
		panic(g.panicV)
	}
	return g.err
}
