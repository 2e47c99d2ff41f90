package par

import (
	"errors"
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
	"time"
)

func TestWorkersResolution(t *testing.T) {
	if Workers(3) != 3 {
		t.Errorf("Workers(3) = %d", Workers(3))
	}
	if Workers(0) != runtime.GOMAXPROCS(0) {
		t.Errorf("Workers(0) = %d, want GOMAXPROCS", Workers(0))
	}
	if Workers(-1) != runtime.GOMAXPROCS(0) {
		t.Errorf("Workers(-1) = %d, want GOMAXPROCS", Workers(-1))
	}
}

// TestForEachCoversEveryIndexOnce changes GOMAXPROCS between calls, up
// and down, with pool helpers from the larger setting still alive: every
// index runs exactly once, and a fan-out at more than one P goes through
// the row pool.
func TestForEachCoversEveryIndexOnce(t *testing.T) {
	for _, procs := range []int{1, 4, 2} {
		withProcs(procs, func() {
			for _, n := range []int{1, 2, 3, 7, 1000} {
				counts := make([]int32, n)
				before := Posts()
				ForEach(n, func(_, i int) { atomic.AddInt32(&counts[i], 1) })
				checkOnce(t, fmt.Sprintf("GOMAXPROCS %d, n %d", procs, n), counts)
				if posted := Posts() - before; (procs > 1 && n > 1) != (posted == 1) {
					t.Fatalf("GOMAXPROCS %d, n %d: %d posts", procs, n, posted)
				}
			}
		})
	}
}

// TestForEachWorkerIDsInRange: across GOMAXPROCS 1 → 4 → 2, Pool(n) is
// min(GOMAXPROCS, n) and every worker ID stays in [0, Pool(n)).
func TestForEachWorkerIDsInRange(t *testing.T) {
	for _, procs := range []int{1, 4, 2} {
		withProcs(procs, func() {
			for _, n := range []int{1, 3, 100} {
				pool := Pool(n)
				if pool != min(procs, n) {
					t.Fatalf("GOMAXPROCS %d: Pool(%d) = %d", procs, n, pool)
				}
				var bad atomic.Int32
				ForEach(n, func(w, _ int) {
					if w < 0 || w >= pool {
						bad.Add(1)
					}
				})
				if bad.Load() != 0 {
					t.Fatalf("GOMAXPROCS %d, n %d: %d worker IDs outside [0, %d)", procs, n, bad.Load(), pool)
				}
			}
		})
	}
}

// TestForEachInsideRunRunsInline: a ForEach from inside a Run chunk finds
// the pool busy, runs lane 0 inline and still covers every index once.
func TestForEachInsideRunRunsInline(t *testing.T) {
	withProcs(4, func() {
		const n, m = 8, 100
		workers := make([][]int, n)
		counts := make([][]int32, n)
		job := funcJob(func(lo, hi int) {
			for i := lo; i < hi; i++ {
				counts[i] = make([]int32, m)
				ForEach(m, func(w, j int) {
					counts[i][j]++
					workers[i] = append(workers[i], w)
				})
			}
		})
		before := Posts()
		Run(job, n)
		if posted := Posts() - before; posted != 1 {
			t.Errorf("%d posts, want 1: a nested ForEach reached the pool", posted)
		}
		for i := range counts {
			checkOnce(t, "nested ForEach", counts[i])
			for _, w := range workers[i] {
				if w != 0 {
					t.Fatalf("nested ForEach ran on worker %d, want lane 0 only", w)
				}
			}
		}
	})
}

func TestForEachDeterministicSlots(t *testing.T) {
	// The contract: writing slot i only must give identical output at any
	// GOMAXPROCS.
	const n = 512
	want := make([]int, n)
	withProcs(1, func() { ForEach(n, func(_, i int) { want[i] = i * i }) })
	for _, procs := range []int{2, 3, 8} {
		got := make([]int, n)
		withProcs(procs, func() { ForEach(n, func(_, i int) { got[i] = i * i }) })
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("GOMAXPROCS %d: slot %d = %d, want %d", procs, i, got[i], want[i])
			}
		}
	}
}

func TestForEachZeroAndNegativeN(t *testing.T) {
	ran := false
	ForEach(0, func(_, _ int) { ran = true })
	ForEach(-3, func(_, _ int) { ran = true })
	if ran {
		t.Error("fn ran for empty index space")
	}
	if Pool(0) != 0 || Pool(-3) != 0 {
		t.Errorf("Pool(0) = %d, Pool(-3) = %d, want 0", Pool(0), Pool(-3))
	}
}

// TestForEachPanicPropagates: inline (GOMAXPROCS 1), a panic leaves
// ForEach like it would a serial loop.
func TestForEachPanicPropagates(t *testing.T) {
	withProcs(1, func() {
		defer func() {
			if r := recover(); r == nil {
				t.Fatal("panic did not propagate")
			}
		}()
		ForEach(16, func(_, i int) {
			if i == 7 {
				panic("boom")
			}
		})
	})
}

func TestGroupFirstErrorBySubmissionOrder(t *testing.T) {
	errA := errors.New("a")
	errB := errors.New("b")
	for trial := 0; trial < 20; trial++ {
		g := NewGroup()
		g.Go(func() error { return nil })
		g.Go(func() error { return errA })
		g.Go(func() error { return errB })
		if err := g.Wait(); !errors.Is(err, errA) {
			t.Fatalf("Wait() = %v, want first-submitted error %v", err, errA)
		}
	}
}

func TestGroupNoError(t *testing.T) {
	g := NewGroup()
	var sum atomic.Int64
	for i := 1; i <= 10; i++ {
		g.Go(func() error { sum.Add(int64(i)); return nil })
	}
	if err := g.Wait(); err != nil {
		t.Fatalf("Wait() = %v", err)
	}
	if sum.Load() != 55 {
		t.Errorf("sum = %d, want 55", sum.Load())
	}
}

func TestGroupPanicPropagates(t *testing.T) {
	defer func() {
		if r := recover(); r == nil {
			t.Fatal("panic did not propagate")
		}
	}()
	g := NewGroup()
	g.Go(func() error { panic("boom") })
	_ = g.Wait()
}

// sentinelPanic is a distinct panic payload type so the re-raise test can
// assert value identity, not just "some panic happened".
type sentinelPanic struct{ reason string }

// TestForEachPanicValueAndDrain: on the pool, the panic value reaches the
// caller unchanged, only after the other lanes drained every other index.
func TestForEachPanicValueAndDrain(t *testing.T) {
	withProcs(4, func() {
		const n = 100
		want := &sentinelPanic{reason: "index 13 exploded"}
		var completed, inFlight atomic.Int64
		before := Posts()
		defer func() {
			r := recover()
			if r == nil {
				t.Fatal("panic did not propagate")
			}
			if got, ok := r.(*sentinelPanic); !ok || got != want {
				t.Fatalf("recovered %#v, want the original panic value %#v", r, want)
			}
			if Posts() != before+1 {
				t.Error("the ForEach was not posted to the pool")
			}
			if in := inFlight.Load(); in != 0 {
				t.Errorf("%d calls still in flight when panic re-raised", in)
			}
			if c := completed.Load(); c != n-1 {
				t.Errorf("completed %d indices, want %d (all but the panicking one)", c, n-1)
			}
		}()
		ForEach(n, func(_, i int) {
			inFlight.Add(1)
			defer inFlight.Add(-1)
			if i == 13 {
				panic(want)
			}
			time.Sleep(10 * time.Microsecond)
			completed.Add(1)
		})
		t.Fatal("ForEach returned instead of panicking")
	})
}
