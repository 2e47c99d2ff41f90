// Package queue provides the global sample queue of §5.2: the asynchronous
// bridge between Samplers and Trainers, located in host memory. It is a
// bounded MPMC FIFO with close semantics (samplers close it when an epoch's
// mini-batches are exhausted) and depth instrumentation, because the
// dynamic-switching profit metric (§5.3) reads the number of remaining
// tasks M_r.
package queue

import (
	"sync"
)

// Queue is a bounded, closable MPMC FIFO. The zero value is not usable;
// construct with New.
type Queue[T any] struct {
	mu       sync.Mutex
	notEmpty *sync.Cond
	notFull  *sync.Cond
	items    []T
	head     int
	count    int
	closed   bool

	enqueued int64
	dequeued int64
	dropped  int64
	maxDepth int
}

// New returns a queue holding at most capacity items. The paper stores all
// samples of an epoch in host memory when needed (single-GPU mode), so
// callers size the queue accordingly.
func New[T any](capacity int) *Queue[T] {
	if capacity <= 0 {
		panic("queue: non-positive capacity")
	}
	q := &Queue[T]{items: make([]T, capacity)}
	q.notEmpty = sync.NewCond(&q.mu)
	q.notFull = sync.NewCond(&q.mu)
	return q
}

// Enqueue blocks until space is available, then appends item. It reports
// false (dropping the item) if the queue was closed; the drop is counted
// in Stats().Dropped so producers that ignore the return value are still
// observable.
func (q *Queue[T]) Enqueue(item T) bool {
	q.mu.Lock()
	defer q.mu.Unlock()
	for q.count == len(q.items) && !q.closed {
		q.notFull.Wait()
	}
	if q.closed {
		q.dropped++
		return false
	}
	q.push(item)
	return true
}

// TryEnqueue appends item without blocking. ok reports whether the item
// was accepted; closed distinguishes a refused enqueue on a closed queue
// (counted in Stats().Dropped) from plain backpressure on a full one.
// Admission control uses the distinction: a full queue sheds load, a
// closed queue rejects outright.
func (q *Queue[T]) TryEnqueue(item T) (ok, closed bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.closed {
		q.dropped++
		return false, true
	}
	if q.count == len(q.items) {
		return false, false
	}
	q.push(item)
	return true, false
}

// push appends item and updates instrumentation. Caller holds q.mu and
// has checked for space and the closed flag.
func (q *Queue[T]) push(item T) {
	q.items[(q.head+q.count)%len(q.items)] = item
	q.count++
	q.enqueued++
	if q.count > q.maxDepth {
		q.maxDepth = q.count
	}
	q.notEmpty.Signal()
}

// Dequeue blocks until an item is available and returns it. It reports
// false when the queue is closed and drained.
func (q *Queue[T]) Dequeue() (T, bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	for q.count == 0 && !q.closed {
		q.notEmpty.Wait()
	}
	if q.count == 0 {
		var zero T
		return zero, false
	}
	item := q.items[q.head]
	var zero T
	q.items[q.head] = zero // release for GC
	q.head = (q.head + 1) % len(q.items)
	q.count--
	q.dequeued++
	q.notFull.Signal()
	return item, true
}

// TryDequeue returns an item without blocking; ok is false when empty.
// done reports whether the queue is closed AND drained — including the
// call that hands out the last item of a closed queue, so a consumer can
// stop immediately instead of burning one extra poll round to learn the
// queue is finished.
func (q *Queue[T]) TryDequeue() (item T, ok, done bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.count == 0 {
		return item, false, q.closed
	}
	item = q.items[q.head]
	var zero T
	q.items[q.head] = zero
	q.head = (q.head + 1) % len(q.items)
	q.count--
	q.dequeued++
	q.notFull.Signal()
	return item, true, q.closed && q.count == 0
}

// Len returns the current depth — the M_r of the switching profit metric.
func (q *Queue[T]) Len() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.count
}

// Close marks the queue closed, waking all waiters. Pending items remain
// dequeueable.
func (q *Queue[T]) Close() {
	q.mu.Lock()
	defer q.mu.Unlock()
	q.closed = true
	q.notEmpty.Broadcast()
	q.notFull.Broadcast()
}

// Stats is a snapshot of queue instrumentation.
type Stats struct {
	Enqueued, Dequeued int64
	// Dropped counts items refused because the queue was closed —
	// producer-side losses that a bare false return would hide.
	Dropped int64
	// MaxDepth is the high-water mark since construction.
	MaxDepth int
}

// Stats returns accumulated instrumentation.
func (q *Queue[T]) Stats() Stats {
	q.mu.Lock()
	defer q.mu.Unlock()
	return Stats{Enqueued: q.enqueued, Dequeued: q.dequeued, Dropped: q.dropped, MaxDepth: q.maxDepth}
}
