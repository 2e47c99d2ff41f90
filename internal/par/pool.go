package par

import (
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// Job is a row-independent piece of work for Run: Rows(lo, hi) computes
// rows [lo, hi), and no row's result may depend on which goroutine
// computes it or on the order the chunks run in. A Job is a long-lived
// descriptor — a pointer to a struct that its owner keeps and refills —
// so posting one allocates nothing.
type Job interface{ Rows(lo, hi int) }

// spinFor bounds how long an idle helper spins, yielding its P on every
// turn, before it parks: long enough that the back-to-back stages of one
// minibatch find it awake, short enough that an idle pool burns nothing
// measurable. A caller waiting on chunks that helpers claimed spins as
// long before it blocks.
const spinFor = 50 * time.Microsecond

// asleep is the bit of pool.done that says the owner sleeps on finished.
const asleep = 1 << 32

// Helper states. A helper that has parked waits on its wake channel until
// a poster moves it back to running.
const (
	running int32 = iota
	parked
)

type helper struct {
	state atomic.Int32
	wake  chan struct{} // one token per parked→running move
}

// pool is the process's one row pool. Its helpers live as long as the
// process: parked, each costs one goroutine and no CPU. The goroutine
// that wins busy owns the job fields, the helper list and panicV until it
// clears busy again; helpers reach the job only through a successful
// claim.
var pool struct {
	busy atomic.Bool
	// claim is chunks<<32 | next: the posted job's chunk count and the
	// next unclaimed chunk. A claim is a CAS of next to next+1, so it
	// always names a chunk of the job the word currently describes, and
	// between jobs next == chunks leaves nothing to claim.
	claim atomic.Uint64

	job      Job
	n, chunk int
	chunks   int32
	// done counts finished chunks in its low 32 bits; the owner sets
	// asleep before it sleeps on finished, and the chunk that makes the
	// count whole sends a token only if it saw the bit with its own Add.
	done     atomic.Uint64
	finished chan struct{}

	panicMu sync.Mutex
	panicV  any

	helpers []*helper
	posts   atomic.Uint64
}

func init() { pool.finished = make(chan struct{}, 1) }

// Run computes job.Rows over [0, n) in contiguous chunks on the calling
// goroutine and the pool's helpers: GOMAXPROCS−1 goroutines started on
// first use, which spin for spinFor after a job and then park. The caller
// claims chunks itself ("help-first") and then waits only for chunks
// that helpers already claimed, so a helper that wakes late costs
// nothing but its wake-up.
//
// Run is inline — one job.Rows(0, n) call on the caller — when n < 2, at
// GOMAXPROCS 1, or when the pool is busy: a post from inside a chunk
// (nested) or from a second goroutine while a job runs (concurrent) never
// waits for the pool, so it can neither deadlock nor put more than
// GOMAXPROCS goroutines on rows at once. A panic in a chunk is re-raised
// on the caller once every claimed chunk has drained, like a serial loop
// would. A steady-state Run allocates nothing.
func Run(job Job, n int) {
	procs := runtime.GOMAXPROCS(0)
	if n < 2 || procs < 2 || !pool.busy.CompareAndSwap(false, true) {
		if n > 0 {
			job.Rows(0, n)
		}
		return
	}
	chunks := min(n, 4*procs)
	chunk := (n + chunks - 1) / chunks
	chunks = (n + chunk - 1) / chunk
	pool.job, pool.n, pool.chunk, pool.chunks = job, n, chunk, int32(chunks)
	pool.done.Store(0)
	pool.claim.Store(uint64(chunks) << 32) // publishes the fields above
	pool.posts.Add(1)

	for len(pool.helpers) < procs-1 {
		h := &helper{wake: make(chan struct{}, 1)}
		pool.helpers = append(pool.helpers, h)
		go h.loop()
	}
	for _, h := range pool.helpers[:min(procs, chunks)-1] {
		if h.state.CompareAndSwap(parked, running) {
			h.wake <- struct{}{}
		}
	}

	help()
	waitDrained()
	v := pool.panicV
	pool.job, pool.panicV = nil, nil
	pool.busy.Store(false)
	if v != nil {
		panic(v)
	}
}

// Free is a mutex-guarded free list for the descriptors and buffers that
// callers of Run keep between calls: Get returns a kept *T, or a new zero
// one when none is free, and Put hands one back. Steady state cycles one
// per concurrent caller. Unlike a sync.Pool, a collection never drops
// the entries, so a warm list allocates nothing.
type Free[T any] struct {
	mu   sync.Mutex
	free []*T
}

// Get takes a *T from the list, or allocates one.
func (f *Free[T]) Get() *T {
	f.mu.Lock()
	defer f.mu.Unlock()
	n := len(f.free)
	if n == 0 {
		return new(T)
	}
	x := f.free[n-1]
	f.free = f.free[:n-1]
	return x
}

// Put returns x to the list.
func (f *Free[T]) Put(x *T) {
	f.mu.Lock()
	f.free = append(f.free, x)
	f.mu.Unlock()
}

// Posts returns how many jobs Run has posted to the pool since the
// process started; inline runs are not counted.
func Posts() uint64 { return pool.posts.Load() }

// help claims and runs chunks of the posted job until none is left, and
// reports whether it ran any.
func help() bool {
	ran := false
	for {
		w := pool.claim.Load()
		next := int32(uint32(w))
		if next >= int32(w>>32) {
			return ran
		}
		if pool.claim.CompareAndSwap(w, w+1) {
			runChunk(int(next))
			ran = true
		}
	}
}

// runChunk computes chunk i and counts it finished, recording the first
// panic for the owner to re-raise.
func runChunk(i int) {
	// The fields are the claimed job's until its last chunk is counted.
	total := uint32(pool.chunks)
	defer func() {
		if r := recover(); r != nil {
			pool.panicMu.Lock()
			if pool.panicV == nil {
				pool.panicV = r
			}
			pool.panicMu.Unlock()
		}
		if d := pool.done.Add(1); uint32(d) == total && d&asleep != 0 {
			pool.finished <- struct{}{}
		}
	}()
	lo := i * pool.chunk
	pool.job.Rows(lo, min(lo+pool.chunk, pool.n))
}

// waitDrained returns once every chunk of the owner's job has finished:
// it spins for spinFor and then sleeps until the last chunk's finisher
// wakes it.
func waitDrained() {
	total := uint64(pool.chunks)
	deadline := time.Now().Add(spinFor)
	for {
		d := pool.done.Load()
		if d == total {
			return
		}
		if time.Now().Before(deadline) {
			runtime.Gosched()
		} else if pool.done.CompareAndSwap(d, d|asleep) {
			<-pool.finished
			return
		}
	}
}

// loop is a helper's life: run whatever chunks are claimable, spin for
// spinFor after the last one, then park until a poster wakes it.
func (h *helper) loop() {
	for {
		deadline := time.Now().Add(spinFor)
		for {
			if help() {
				deadline = time.Now().Add(spinFor)
				continue
			}
			if !time.Now().Before(deadline) {
				break
			}
			runtime.Gosched()
		}
		h.state.Store(parked)
		// A job posted between the last look and the store above found
		// this helper running and did not wake it: look once more.
		if w := pool.claim.Load(); uint32(w) < uint32(w>>32) && h.state.CompareAndSwap(parked, running) {
			continue
		}
		<-h.wake
	}
}
