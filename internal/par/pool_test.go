package par

import (
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// withProcs runs fn at GOMAXPROCS procs and restores the old value.
func withProcs(procs int, fn func()) {
	prev := runtime.GOMAXPROCS(procs)
	defer runtime.GOMAXPROCS(prev)
	fn()
}

// countJob counts visits per row; -race sees two chunks sharing a row.
type countJob struct{ visits []int32 }

func (j *countJob) Rows(lo, hi int) {
	for i := lo; i < hi; i++ {
		j.visits[i]++
	}
}

// funcJob adapts a function to Job for tests that do not pin allocations.
type funcJob func(lo, hi int)

func (f funcJob) Rows(lo, hi int) { f(lo, hi) }

func checkOnce(t *testing.T, what string, visits []int32) {
	t.Helper()
	for i, v := range visits {
		if v != 1 {
			t.Fatalf("%s: row %d visited %d times", what, i, v)
		}
	}
}

// TestRunCoversEveryRowAcrossProcs changes GOMAXPROCS between calls, up
// and down, with helpers from the larger setting still alive: every row is
// computed exactly once, and a post at more than one P reaches the pool.
func TestRunCoversEveryRowAcrossProcs(t *testing.T) {
	for _, procs := range []int{1, 4, 2, 1, 3} {
		withProcs(procs, func() {
			for n := 0; n <= 4*procs+9; n++ {
				j := &countJob{visits: make([]int32, n)}
				before := Posts()
				Run(j, n)
				checkOnce(t, "GOMAXPROCS "+string(rune('0'+procs)), j.visits)
				if posted := Posts() - before; (procs > 1 && n > 1) != (posted == 1) {
					t.Fatalf("GOMAXPROCS %d, n %d: %d posts", procs, n, posted)
				}
			}
		})
	}
}

// TestRunPanicReraisedAfterDrain: the panic value reaches the caller
// unchanged, only after every other claimed chunk finished, and the pool
// takes the next job.
func TestRunPanicReraisedAfterDrain(t *testing.T) {
	withProcs(4, func() {
		const n = 64
		want := &struct{ reason string }{"last row exploded"}
		var inFlight, completed atomic.Int32
		job := funcJob(func(lo, hi int) {
			inFlight.Add(1)
			defer inFlight.Add(-1)
			for i := lo; i < hi; i++ {
				if i == n-1 {
					panic(want)
				}
				time.Sleep(10 * time.Microsecond)
				completed.Add(1)
			}
		})
		func() {
			defer func() {
				if r := recover(); r != want {
					t.Fatalf("recovered %#v, want the chunk's panic value", r)
				}
				if in := inFlight.Load(); in != 0 {
					t.Errorf("%d chunks still running when the panic was re-raised", in)
				}
				if c := completed.Load(); c != n-1 {
					t.Errorf("%d rows completed, want %d", c, n-1)
				}
			}()
			Run(job, n)
			t.Fatal("Run returned instead of panicking")
		}()
		j := &countJob{visits: make([]int32, n)}
		before := Posts()
		Run(j, n)
		checkOnce(t, "after a panic", j.visits)
		if Posts() != before+1 {
			t.Error("the pool stayed busy after a panicking job")
		}
	})
}

// TestRunNestedRunsInline: a post from inside a chunk, helpers' chunks
// included, finds the pool busy and runs inline to completion.
func TestRunNestedRunsInline(t *testing.T) {
	withProcs(4, func() {
		const n, m = 8, 100
		inner := make([][]int32, n)
		var inFlight, overlapped atomic.Int32
		job := funcJob(func(lo, hi int) {
			// Hold the chunk until a second one runs beside it, so some
			// nested post comes from a helper and not from the caller.
			inFlight.Add(1)
			for deadline := time.Now().Add(time.Second); overlapped.Load() == 0 && time.Now().Before(deadline); {
				if inFlight.Load() >= 2 {
					overlapped.Store(1)
				}
				runtime.Gosched()
			}
			for i := lo; i < hi; i++ {
				inner[i] = make([]int32, m)
				Run(&countJob{visits: inner[i]}, m)
			}
			inFlight.Add(-1)
		})
		before := Posts()
		Run(job, n)
		if posted := Posts() - before; posted != 1 {
			t.Errorf("%d posts, want 1: a nested post reached the pool", posted)
		}
		if overlapped.Load() == 0 {
			t.Error("no helper ran a chunk beside the caller's")
		}
		for i := range inner {
			checkOnce(t, "nested", inner[i])
		}
	})
}

// TestRunConcurrentPosters: eight goroutines post at once; whoever finds
// the pool busy runs inline, and every poster's rows are exact.
func TestRunConcurrentPosters(t *testing.T) {
	withProcs(4, func() {
		const posters, rounds, n = 8, 50, 257
		var wg sync.WaitGroup
		errs := make([]string, posters)
		for p := 0; p < posters; p++ {
			wg.Add(1)
			go func(p int) {
				defer wg.Done()
				out := make([]int, n)
				for r := 0; r < rounds; r++ {
					Run(funcJob(func(lo, hi int) {
						for i := lo; i < hi; i++ {
							out[i] = p*1_000_000 + r*1000 + i
						}
					}), n)
					for i, v := range out {
						if v != p*1_000_000+r*1000+i {
							errs[p] = "wrong row"
							return
						}
					}
				}
			}(p)
		}
		wg.Wait()
		for p, e := range errs {
			if e != "" {
				t.Errorf("poster %d: %s", p, e)
			}
		}
	})
}

// mallocsPerRun is testing.AllocsPerRun without its switch to
// GOMAXPROCS 1, under which Run never posts: heap allocations of the
// whole process, helpers included, per call of fn. It warms up with runs
// calls and returns the fewest over three windows of runs calls, so that
// a one-off allocation of the runtime's own (a new thread's M, a
// scavenger timer) does not read as one per call.
func mallocsPerRun(runs int, fn func()) float64 {
	for i := 0; i < runs; i++ {
		fn()
	}
	best := math.Inf(1)
	for w := 0; w < 3; w++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < runs; i++ {
			fn()
		}
		runtime.ReadMemStats(&after)
		best = min(best, float64(after.Mallocs-before.Mallocs)/float64(runs))
	}
	return best
}

// TestRunSteadyStateAllocatesNothing: posting a kept descriptor to
// helpers that are still spinning from the previous job allocates nothing.
// (A helper woken from park goes through a channel receive, for which the
// runtime now and then allocates a sudog when its per-P cache runs dry;
// that is the runtime's, not the pool's, and back-to-back stages do not
// park.)
func TestRunSteadyStateAllocatesNothing(t *testing.T) {
	withProcs(2, func() {
		j := &countJob{visits: make([]int32, 64)}
		before := Posts()
		if allocs := mallocsPerRun(100, func() { Run(j, 64) }); allocs != 0 {
			t.Errorf("Run allocates %v/op", allocs)
		}
		if posted := Posts() - before; posted != 400 {
			t.Errorf("%d of 400 runs were posted", posted)
		}
	})
}
