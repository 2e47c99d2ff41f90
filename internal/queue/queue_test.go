package queue

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestFIFOSingleThreaded(t *testing.T) {
	q := New[int](8)
	for i := 0; i < 5; i++ {
		if !q.Enqueue(i) {
			t.Fatal("enqueue refused")
		}
	}
	for i := 0; i < 5; i++ {
		v, ok := q.Dequeue()
		if !ok || v != i {
			t.Fatalf("dequeue %d = %d,%v", i, v, ok)
		}
	}
}

func TestWrapAround(t *testing.T) {
	q := New[int](3)
	for round := 0; round < 10; round++ {
		for i := 0; i < 3; i++ {
			q.Enqueue(round*3 + i)
		}
		for i := 0; i < 3; i++ {
			v, ok := q.Dequeue()
			if !ok || v != round*3+i {
				t.Fatalf("round %d: got %d,%v", round, v, ok)
			}
		}
	}
}

func TestCloseDrainsThenStops(t *testing.T) {
	q := New[string](4)
	q.Enqueue("a")
	q.Enqueue("b")
	q.Close()
	if q.Enqueue("c") {
		t.Error("enqueue after close accepted")
	}
	if v, ok := q.Dequeue(); !ok || v != "a" {
		t.Errorf("first drain = %q,%v", v, ok)
	}
	if v, ok := q.Dequeue(); !ok || v != "b" {
		t.Errorf("second drain = %q,%v", v, ok)
	}
	if _, ok := q.Dequeue(); ok {
		t.Error("dequeue succeeded on closed empty queue")
	}
}

func TestTryDequeue(t *testing.T) {
	q := New[int](2)
	if _, ok, done := q.TryDequeue(); ok || done {
		t.Errorf("empty open queue: ok=%v done=%v", ok, done)
	}
	q.Enqueue(7)
	if v, ok, _ := q.TryDequeue(); !ok || v != 7 {
		t.Errorf("TryDequeue = %d,%v", v, ok)
	}
	q.Close()
	if _, ok, done := q.TryDequeue(); ok || !done {
		t.Errorf("closed empty queue: ok=%v done=%v", ok, done)
	}
}

func TestBlockingHandoff(t *testing.T) {
	q := New[int](1)
	done := make(chan int, 1)
	go func() {
		v, _ := q.Dequeue() // blocks until producer arrives
		done <- v
	}()
	time.Sleep(10 * time.Millisecond)
	q.Enqueue(42)
	select {
	case v := <-done:
		if v != 42 {
			t.Errorf("handoff delivered %d", v)
		}
	case <-time.After(time.Second):
		t.Fatal("consumer never woke")
	}
}

func TestBackpressure(t *testing.T) {
	q := New[int](1)
	q.Enqueue(1)
	enqueued := make(chan struct{})
	go func() {
		q.Enqueue(2) // must block until a slot frees
		close(enqueued)
	}()
	select {
	case <-enqueued:
		t.Fatal("enqueue did not block on a full queue")
	case <-time.After(20 * time.Millisecond):
	}
	q.Dequeue()
	select {
	case <-enqueued:
	case <-time.After(time.Second):
		t.Fatal("blocked producer never woke")
	}
}

func TestCloseWakesBlockedProducer(t *testing.T) {
	q := New[int](1)
	q.Enqueue(1)
	refused := make(chan bool, 1)
	go func() {
		refused <- !q.Enqueue(2)
	}()
	time.Sleep(10 * time.Millisecond)
	q.Close()
	select {
	case r := <-refused:
		if !r {
			t.Error("enqueue during close succeeded")
		}
	case <-time.After(time.Second):
		t.Fatal("blocked producer not woken by Close")
	}
}

// TestMPMCExactlyOnce hammers the queue with concurrent producers and
// consumers and verifies every item is delivered exactly once.
func TestMPMCExactlyOnce(t *testing.T) {
	const producers, consumers, perProducer = 4, 4, 2000
	q := New[int](16)
	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for i := 0; i < perProducer; i++ {
				q.Enqueue(p*perProducer + i)
			}
		}(p)
	}
	go func() {
		wg.Wait()
		q.Close()
	}()

	var mu sync.Mutex
	seen := make(map[int]int)
	var consumed atomic.Int64
	var cg sync.WaitGroup
	for c := 0; c < consumers; c++ {
		cg.Add(1)
		go func() {
			defer cg.Done()
			for {
				v, ok := q.Dequeue()
				if !ok {
					return
				}
				consumed.Add(1)
				mu.Lock()
				seen[v]++
				mu.Unlock()
			}
		}()
	}
	cg.Wait()
	if got := consumed.Load(); got != producers*perProducer {
		t.Fatalf("consumed %d items, want %d", got, producers*perProducer)
	}
	for v, c := range seen {
		if c != 1 {
			t.Fatalf("item %d delivered %d times", v, c)
		}
	}
	st := q.Stats()
	if st.Enqueued != producers*perProducer || st.Dequeued != producers*perProducer {
		t.Errorf("stats %+v", st)
	}
	if st.MaxDepth > 16 {
		t.Errorf("max depth %d exceeded capacity", st.MaxDepth)
	}
}

func TestLenTracksDepth(t *testing.T) {
	q := New[int](4)
	if q.Len() != 0 {
		t.Error("fresh queue not empty")
	}
	q.Enqueue(1)
	q.Enqueue(2)
	if q.Len() != 2 {
		t.Errorf("Len = %d, want 2", q.Len())
	}
	q.Dequeue()
	if q.Len() != 1 {
		t.Errorf("Len = %d, want 1", q.Len())
	}
}

// TestTryDequeueReportsDoneOnLastItem pins the closed-and-now-drained
// contract: the call that hands out the final item of a closed queue
// must already report done=true, so a polling consumer stops without an
// extra empty round.
func TestTryDequeueReportsDoneOnLastItem(t *testing.T) {
	// While open, handing out the last item must NOT claim done.
	q := New[int](4)
	q.Enqueue(3)
	if v, ok, done := q.TryDequeue(); !ok || v != 3 || done {
		t.Errorf("last item of open queue: v=%d ok=%v done=%v, want 3,true,false", v, ok, done)
	}
	q.Enqueue(1)
	q.Enqueue(2)
	q.Close()
	if v, ok, done := q.TryDequeue(); !ok || v != 1 || done {
		t.Errorf("first item: v=%d ok=%v done=%v, want 1,true,false", v, ok, done)
	}
	if v, ok, done := q.TryDequeue(); !ok || v != 2 || !done {
		t.Errorf("last item of closed queue: v=%d ok=%v done=%v, want 2,true,true", v, ok, done)
	}
}

func TestDroppedCountsClosedEnqueues(t *testing.T) {
	q := New[int](2)
	q.Enqueue(1)
	q.Close()
	if q.Enqueue(2) {
		t.Fatal("enqueue after close accepted")
	}
	if ok, closed := q.TryEnqueue(3); ok || !closed {
		t.Fatalf("TryEnqueue on closed queue: ok=%v closed=%v", ok, closed)
	}
	if st := q.Stats(); st.Dropped != 2 {
		t.Errorf("Dropped = %d, want 2", st.Dropped)
	}
	if st := q.Stats(); st.Enqueued != 1 {
		t.Errorf("Enqueued = %d, want 1 (drops must not count as enqueues)", st.Enqueued)
	}
}

func TestTryEnqueueBackpressureVsClosed(t *testing.T) {
	q := New[int](1)
	if ok, closed := q.TryEnqueue(1); !ok || closed {
		t.Fatalf("TryEnqueue on empty queue: ok=%v closed=%v", ok, closed)
	}
	// Full but open: refused without counting as a drop (caller sheds).
	if ok, closed := q.TryEnqueue(2); ok || closed {
		t.Fatalf("TryEnqueue on full queue: ok=%v closed=%v", ok, closed)
	}
	if st := q.Stats(); st.Dropped != 0 {
		t.Errorf("backpressure refusal counted as drop: %+v", st)
	}
	q.Dequeue()
	if ok, _ := q.TryEnqueue(3); !ok {
		t.Error("TryEnqueue refused after slot freed")
	}
}

// TestCloseStress closes the queue under concurrent producers and
// consumers — producers parked in notFull.Wait must wake into the refusal
// path, every accepted item must be delivered exactly once, and
// accepted+dropped must account for every attempt. Run with -race to
// check the close transition.
func TestCloseStress(t *testing.T) {
	const producers, consumers, perProducer = 4, 3, 500
	q := New[int](4)

	var accepted, dropped atomic.Int64
	var pg sync.WaitGroup
	for p := 0; p < producers; p++ {
		pg.Add(1)
		go func(p int) {
			defer pg.Done()
			for i := 0; i < perProducer; i++ {
				if q.Enqueue(p*perProducer + i) {
					accepted.Add(1)
				} else {
					dropped.Add(1)
				}
			}
		}(p)
	}

	var mu sync.Mutex
	seen := make(map[int]int)
	var cg sync.WaitGroup
	for c := 0; c < consumers; c++ {
		cg.Add(1)
		go func() {
			defer cg.Done()
			for {
				v, ok := q.Dequeue()
				if !ok {
					return // closed and drained
				}
				mu.Lock()
				seen[v]++
				mu.Unlock()
			}
		}()
	}

	// Close mid-stream, waking producers parked on a full queue into the
	// refusal path while consumers drain the residue.
	time.Sleep(time.Millisecond)
	q.Close()
	pg.Wait()
	cg.Wait()

	if got := accepted.Load() + dropped.Load(); got != producers*perProducer {
		t.Fatalf("accepted %d + dropped %d = %d attempts, want %d",
			accepted.Load(), dropped.Load(), got, producers*perProducer)
	}
	var delivered int64
	for v, c := range seen {
		if c != 1 {
			t.Fatalf("item %d delivered %d times", v, c)
		}
		delivered++
	}
	if delivered != accepted.Load() {
		t.Fatalf("delivered %d items, accepted %d", delivered, accepted.Load())
	}
	st := q.Stats()
	if st.Dropped != dropped.Load() {
		t.Errorf("Stats().Dropped = %d, producers saw %d refusals", st.Dropped, dropped.Load())
	}
	if st.Enqueued != accepted.Load() || st.Dequeued != delivered {
		t.Errorf("stats %+v, want enqueued=%d dequeued=%d", st, accepted.Load(), delivered)
	}
}

func TestNewPanicsOnBadCapacity(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("New(0) did not panic")
		}
	}()
	New[int](0)
}
