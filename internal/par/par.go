// Package par provides the deterministic fan-out primitives behind the
// measurement engine and the Trainer: the row pool (Run), an index-space
// fan-out with per-worker state on that pool (ForEach) and an
// errgroup-style task group (Group). All are sized by GOMAXPROCS and
// designed so callers can prove bit-identical results at any width: work
// is identified by index, outputs go into pre-sized slots, and error
// selection is by submission order rather than by completion order.
package par

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Workers resolves a worker count: n > 0 is taken literally; zero or
// negative means GOMAXPROCS. Nothing in the module takes a count any more;
// the name stays for the frozen benchmark harness, which calls
// graph.Pack(g, par.Workers(0)).
func Workers(n int) int {
	if n > 0 {
		return n
	}
	return runtime.GOMAXPROCS(0)
}

// Pool is the number of lanes ForEach(n, …) runs: GOMAXPROCS capped at n.
// Callers size per-worker state with it.
func Pool(n int) int {
	return max(min(runtime.GOMAXPROCS(0), n), 0)
}

// lanes is ForEach's Job: each row is one lane, which pulls indices from
// the shared counter until none is left.
type lanes struct {
	next atomic.Int64
	n    int64
	fn   func(worker, i int)
}

func (l *lanes) Rows(lo, hi int) {
	for w := lo; w < hi; w++ {
		for i := l.next.Add(1) - 1; i < l.n; i = l.next.Add(1) - 1 {
			l.fn(w, int(i))
		}
	}
}

// ForEach runs fn(worker, i) for every i in [0, n), on Pool(n) lanes
// posted to the row pool (Run), one chunk per lane. Indices are handed out
// by an atomic counter, so which worker executes which index varies
// between runs; determinism is the caller's contract: fn must write only
// to slot i of pre-sized outputs and to worker-private state indexed by
// `worker` (0 <= worker < Pool(n)), merged by the caller afterwards in
// worker order.
//
// At GOMAXPROCS 1, or when the pool is busy (a ForEach from inside a Run
// chunk, or beside another goroutine's job), lane 0 runs inline and
// drains every index. A panic in fn is re-raised on the calling goroutine
// after the other lanes drain, like a serial loop would.
func ForEach(n int, fn func(worker, i int)) {
	if n <= 0 {
		return
	}
	Run(&lanes{n: int64(n), fn: fn}, Pool(n))
}

// Group runs heterogeneous tasks, at most GOMAXPROCS at once, and returns
// the first error by submission order (not completion order, which would
// make the reported error depend on scheduling). Go must be called from a
// single goroutine; Wait blocks until every submitted task finished.
//
// A Group runs on its own goroutines, not on the row pool: its tasks are
// coarse cells that fan out inside (an experiment cell's core.Run replays
// through ForEach). If a cell held the pool, that nested work would run
// inline, and the last long cell of a table would run on one core.
type Group struct {
	sem chan struct{}
	wg  sync.WaitGroup

	mu     sync.Mutex
	errIdx int
	err    error
	panicV any

	submitted int
}

// NewGroup returns a Group running at most GOMAXPROCS tasks at once.
func NewGroup() *Group {
	return &Group{sem: make(chan struct{}, runtime.GOMAXPROCS(0)), errIdx: -1}
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
