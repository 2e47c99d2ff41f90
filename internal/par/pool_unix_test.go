//go:build unix

package par

import (
	"syscall"
	"testing"
	"time"
)

// cpuTime is this process's user+system CPU time.
func cpuTime(t *testing.T) time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		t.Fatal(err)
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// TestIdleHelpersPark: after a fanned job the helpers spin for spinFor
// and park, so the process burns (almost) no CPU while the pool is idle.
// A helper that kept spinning would cost a whole core over the sleep.
func TestIdleHelpersPark(t *testing.T) {
	withProcs(4, func() {
		j := &countJob{visits: make([]int32, 1024)}
		before := Posts()
		Run(j, len(j.visits))
		if Posts() != before+1 {
			t.Fatal("the job was not posted")
		}
		const idle = 200 * time.Millisecond
		start := cpuTime(t)
		time.Sleep(idle)
		if used := cpuTime(t) - start; used > idle/8 {
			t.Errorf("%v of CPU over %v idle: helpers did not park", used, idle)
		}
	})
}
