// Package serve is the online inference layer: the ROADMAP's production
// path from a request ("classify vertex v") to a prediction, built on
// the training stack's factored pieces — the Sampler algorithms, the
// feature store + cache, and the nn forward path.
//
// The layer has three moving parts:
//
//   - Admission control: requests enter a bounded queue.Queue; a full
//     queue sheds immediately, and a request whose projected wait (an
//     EWMA of recent batch service times multiplied by the batches
//     queued ahead) already exceeds its deadline is shed at submit
//     rather than wasting queue space and GPU work on a guaranteed miss.
//     A request with nothing queued ahead is always admitted: only
//     running a batch can correct the estimate.
//   - Microbatching: Step coalesces pending requests into one shared
//     minibatch — deduplicated seeds, one k-hop sample, one gather, one
//     forward — run by the same pooled zero-alloc minibatch.Executor a
//     Trainer uses, so the per-batch fixed costs that dominate
//     small-request latency amortize across concurrent requests.
//   - Request-driven caching: every sampled neighborhood feeds vertex
//     visit counts into cache.Hotness via ApplyDelta, and a periodic
//     Decay+RankTop+Load rerank re-fills the feature cache from what
//     requests actually touch — the serving replacement for PreSC's
//     per-epoch pre-sampling, which has no epochs to pre-sample here.
//
// Determinism: given a fixed submit/step schedule and an injected
// clock, every result and counter is reproducible; the only wall-clock
// input is the optional Now option, which defaults to real time for
// production metrics.
package serve

import (
	"errors"
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"gnnlab/internal/cache"
	"gnnlab/internal/feature"
	"gnnlab/internal/gen"
	"gnnlab/internal/minibatch"
	"gnnlab/internal/nn"
	"gnnlab/internal/obs"
	"gnnlab/internal/queue"
	"gnnlab/internal/rng"
	"gnnlab/internal/sampling"
	"gnnlab/internal/workload"
)

// Outcome is the admission decision for one submitted request.
type Outcome uint8

const (
	// Admitted: the request entered the queue and will be batched.
	Admitted Outcome = iota
	// ShedQueueFull: the bounded queue had no space.
	ShedQueueFull
	// ShedDeadline: the projected wait already exceeded the deadline.
	ShedDeadline
	// Closed: the server is shut down.
	Closed
	// Invalid: the requested vertex is outside the graph.
	Invalid
)

// String names the outcome for logs and tables.
func (o Outcome) String() string {
	switch o {
	case Admitted:
		return "admitted"
	case ShedQueueFull:
		return "shed-queue-full"
	case ShedDeadline:
		return "shed-deadline"
	case Closed:
		return "closed"
	case Invalid:
		return "invalid"
	default:
		return fmt.Sprintf("Outcome(%d)", uint8(o))
	}
}

// Ticket is one in-flight request. After the Step that serves it
// returns, Done reports true and Class holds the predicted class — or
// Expired reports the deadline passed while the request was queued.
// Tickets are pooled: hand them back with Release once read.
type Ticket struct {
	// Vertex is the requested seed vertex.
	Vertex int32
	// Class is the predicted class, valid once Done && !Expired.
	Class int32
	// Done flips when the request leaves the system (served or expired).
	Done bool
	// Expired reports the deadline passed before the batch dispatched.
	Expired bool

	arrive   float64
	deadline float64
	seedPos  int32
}

// Options configures a Server. The zero value of every field has a
// usable default except Spec, which callers usually take from
// workload.NewSpec.
type Options struct {
	// Spec picks the sampling fan-out and model shape.
	Spec workload.Spec
	// Model overrides the (untrained) model built from Spec — a caller
	// with trained weights passes it here. Its dimensions must match
	// the dataset and Spec.
	Model *nn.Model
	// BatchSize caps how many requests one Step coalesces
	// (0 = Spec.BatchSize).
	BatchSize int
	// QueueCap bounds the admission queue (0 = 4×BatchSize).
	QueueCap int
	// Deadline is the per-request latency budget in seconds
	// (0 = 250ms).
	Deadline float64
	// CacheRatio is the fraction of vertices whose features the cache
	// holds (0 = caching disabled).
	CacheRatio float64
	// HotnessDecay is the per-rerank exponential decay of observed
	// visit counts (0 = 0.9).
	HotnessDecay float64
	// RerankEvery is how many batches between cache reranks
	// (0 = 64; ignored while CacheRatio is 0).
	RerankEvery int
	// Seed keys the model init and the sampler's RNG stream.
	Seed uint64
	// Obs receives serve.* counters, latency histograms, and rerank
	// events. Nil is valid and free.
	Obs *obs.Recorder
	// Now is the monotonic clock in seconds (nil = wall clock).
	// Deterministic tests inject a fake.
	Now func() float64
	// EWMAAlpha is the smoothing factor of the batch-service-time
	// estimate driving projected-wait shedding (0 = 0.2).
	EWMAAlpha float64
}

// Server is the online inference engine. Submit is safe for concurrent
// callers; Step must run on one dispatcher goroutine at a time, and a
// ticket's results are valid once the Step that served it returns.
type Server struct {
	d     *gen.Dataset
	model *nn.Model
	store *feature.Store
	ex    *minibatch.Executor
	smpR  *rng.Rand

	opt     Options
	pending *queue.Queue[*Ticket]

	// free is the ticket freelist; Submit pops, Release pushes.
	freeMu sync.Mutex
	free   []*Ticket

	// estBatch is the EWMA batch service time in seconds, read by
	// Submit for projected-wait shedding and written by Step.
	estBatch atomicFloat

	// Dispatcher-owned microbatch state, reused across Steps.
	batch   []*Ticket
	seeds   []int32
	stamp   []int32 // seed dedup: stamp[v] == gen ⇒ seen, slot[v] = pos
	slot    []int32
	gen     int32
	visits  []cache.DeltaVisit
	hot     cache.Hotness
	batches int

	// Instruments (nil-safe when opt.Obs is nil).
	cAdmitted, cShedFull, cShedDeadline *obs.Counter
	cServed, cExpired, cBatches         *obs.Counter
	cReranks, cDropped                  *obs.Counter
	hLatency, hBatchSize                *obs.Histogram
	gDepth                              *obs.Gauge
}

// atomicFloat is a float64 with atomic load/store — Submit goroutines
// read the batch-service estimate while the dispatcher updates it.
type atomicFloat struct{ bits atomic.Uint64 }

func (f *atomicFloat) load() float64   { return math.Float64frombits(f.bits.Load()) }
func (f *atomicFloat) store(v float64) { f.bits.Store(math.Float64bits(v)) }

// New builds a Server over a dataset with materialized features.
func New(d *gen.Dataset, opt Options) (*Server, error) {
	if len(d.Features) == 0 {
		return nil, errors.New("serve: dataset has no materialized features")
	}
	if opt.BatchSize <= 0 {
		opt.BatchSize = opt.Spec.BatchSize
	}
	if opt.BatchSize <= 0 {
		return nil, errors.New("serve: no batch size (set Options.BatchSize or Spec.BatchSize)")
	}
	if opt.QueueCap <= 0 {
		opt.QueueCap = 4 * opt.BatchSize
	}
	if opt.Deadline <= 0 {
		opt.Deadline = 0.25
	}
	if opt.HotnessDecay <= 0 || opt.HotnessDecay > 1 {
		opt.HotnessDecay = 0.9
	}
	if opt.RerankEvery <= 0 {
		opt.RerankEvery = 64
	}
	if opt.EWMAAlpha <= 0 || opt.EWMAAlpha > 1 {
		opt.EWMAAlpha = 0.2
	}
	if opt.Now == nil {
		start := time.Now()
		opt.Now = func() float64 { return time.Since(start).Seconds() }
	}

	store, err := feature.NewStore(d.Features, d.FeatureDim)
	if err != nil {
		return nil, err
	}
	model := opt.Model
	if model == nil {
		model = nn.NewModel(opt.Spec.Kind, opt.Spec.NumLayers(), d.FeatureDim, opt.Spec.HiddenDim, d.NumClasses, opt.Seed^0x5E12E)
	}
	alg := opt.Spec.NewSampler()
	sampling.Prepare(alg, d.Graph)

	n := d.NumVertices()
	s := &Server{
		d:       d,
		model:   model,
		store:   store,
		ex:      minibatch.New(alg, d.Graph, store, nil),
		smpR:    rng.New(opt.Seed ^ 0x5E12F),
		opt:     opt,
		pending: queue.New[*Ticket](opt.QueueCap),
		batch:   make([]*Ticket, 0, opt.BatchSize),
		seeds:   make([]int32, 0, opt.BatchSize),
		stamp:   make([]int32, n),
		slot:    make([]int32, n),
		// Bootstrap hotness from degree (the PaGraph prior) until
		// observed request traffic takes over through ApplyDelta.
		hot: cache.DegreeHotness(d.Graph),

		cAdmitted:     opt.Obs.Registry().Counter("serve.admitted"),
		cShedFull:     opt.Obs.Registry().Counter("serve.shed_queue_full"),
		cShedDeadline: opt.Obs.Registry().Counter("serve.shed_deadline"),
		cServed:       opt.Obs.Registry().Counter("serve.served"),
		cExpired:      opt.Obs.Registry().Counter("serve.expired"),
		cBatches:      opt.Obs.Registry().Counter("serve.batches"),
		cReranks:      opt.Obs.Registry().Counter("serve.cache_reranks"),
		cDropped:      opt.Obs.Registry().Counter("queue.dropped_enqueues"),
		hLatency:      opt.Obs.Registry().Histogram("serve.latency_s"),
		hBatchSize:    opt.Obs.Registry().Histogram("serve.batch_size"),
		gDepth:        opt.Obs.Registry().Gauge("serve.queue_depth"),
	}
	s.estBatch.store(1e-3) // optimistic prior; the EWMA converges fast
	if opt.CacheRatio > 0 {
		if err := s.rerank(); err != nil {
			return nil, err
		}
	}
	return s, nil
}

// Submit offers one request. On Admitted the returned ticket is live
// until the Step that serves it; on any shed outcome the ticket is nil.
func (s *Server) Submit(vertex int32) (*Ticket, Outcome) {
	if vertex < 0 || int(vertex) >= s.d.NumVertices() {
		return nil, Invalid
	}
	now := s.opt.Now()
	// Projected wait: batches queued ahead of this request times the
	// EWMA batch service time. Shedding here is the cheap refusal — the
	// request would expire in queue anyway, so don't occupy a slot. An
	// empty queue always admits: one slow Step can lift the estimate past
	// the deadline, and it only decays when another batch runs.
	depth := s.pending.Len()
	batchesAhead := (depth + s.opt.BatchSize) / s.opt.BatchSize
	if depth > 0 && float64(batchesAhead)*s.estBatch.load() > s.opt.Deadline {
		s.cShedDeadline.Add(1)
		return nil, ShedDeadline
	}
	t := s.getTicket()
	t.Vertex = vertex
	t.arrive = now
	t.deadline = now + s.opt.Deadline
	ok, closed := s.pending.TryEnqueue(t)
	if !ok {
		s.Release(t)
		if closed {
			s.cDropped.Add(1)
			return nil, Closed
		}
		s.cShedFull.Add(1)
		return nil, ShedQueueFull
	}
	s.cAdmitted.Add(1)
	return t, Admitted
}

// Step coalesces pending requests into one microbatch and serves it,
// returning how many requests completed (served or expired) and whether
// the queue is closed and fully drained. A zero-request Step is free.
func (s *Server) Step() (completed int, done bool, err error) {
	now := s.opt.Now()
	s.batch = s.batch[:0]
	s.seeds = s.seeds[:0]
	s.gen++
	for len(s.batch) < s.opt.BatchSize {
		t, ok, drained := s.pending.TryDequeue()
		done = drained
		if !ok {
			break
		}
		if now > t.deadline {
			// Deadline passed while queued: drop at dispatch instead of
			// spending sample/gather/forward on a guaranteed miss.
			t.Done, t.Expired = true, true
			s.cExpired.Add(1)
			completed++
			continue
		}
		// Seed dedup: concurrent requests for the same vertex share one
		// seed slot (the Sample path rejects duplicate globals).
		if s.stamp[t.Vertex] == s.gen {
			t.seedPos = s.slot[t.Vertex]
		} else {
			s.stamp[t.Vertex] = s.gen
			s.slot[t.Vertex] = int32(len(s.seeds))
			t.seedPos = int32(len(s.seeds))
			s.seeds = append(s.seeds, t.Vertex)
		}
		s.batch = append(s.batch, t)
	}
	s.gDepth.Set(float64(s.pending.Len()))
	if len(s.batch) == 0 {
		return completed, done, nil
	}

	smp := s.ex.Sample(s.seeds, s.smpR)
	if err := s.ex.Compact(); err != nil {
		return completed, done, err
	}
	s.ex.Gather()
	classes, err := s.ex.Classify(s.model)
	if err != nil {
		return completed, done, err
	}
	end := s.opt.Now()
	for _, t := range s.batch {
		t.Class = classes[t.seedPos]
		t.Done = true
		s.hLatency.Observe(end - t.arrive)
		completed++
	}
	s.cServed.Add(int64(len(s.batch)))
	s.cBatches.Add(1)
	s.hBatchSize.Observe(float64(len(s.batch)))
	s.batches++

	// Fold the batch's service time into the admission estimate.
	a := s.opt.EWMAAlpha
	s.estBatch.store((1-a)*s.estBatch.load() + a*(end-now))

	// Request-driven hotness: every vertex this batch touched (the full
	// sampled neighborhood, not just the seeds — Extract gathers them
	// all) votes for cache residency.
	if s.opt.CacheRatio > 0 {
		s.visits = s.visits[:0]
		if cap(s.visits) < len(smp.Input) {
			s.visits = make([]cache.DeltaVisit, 0, len(smp.Input))
		}
		for _, v := range smp.Input {
			s.visits = append(s.visits, cache.DeltaVisit{Vertex: v, Count: 1})
		}
		s.hot.ApplyDelta(s.visits)
		if s.batches%s.opt.RerankEvery == 0 {
			s.hot.Decay(s.opt.HotnessDecay)
			if err := s.rerank(); err != nil {
				return completed, done, err
			}
		}
	}
	return completed, done, nil
}

// rerank re-fills the feature cache from the current hotness ranking.
func (s *Server) rerank() error {
	n := s.d.NumVertices()
	slots := int(s.opt.CacheRatio * float64(n))
	if slots <= 0 {
		return nil
	}
	table, err := cache.Load(s.hot.RankTop(slots), slots, n, int64(s.d.FeatureDim)*4)
	if err != nil {
		return err
	}
	if err := s.store.EnableCache(table); err != nil {
		return err
	}
	s.cReranks.Add(1)
	if l := s.opt.Obs.EventLog(); l.Enabled(obs.LevelInfo) {
		l.Event(obs.LevelInfo, "serve.rerank",
			obs.Attr{Key: "batches", Value: s.batches},
			obs.Attr{Key: "slots", Value: slots},
			obs.Attr{Key: "hit_rate", Value: s.store.HitRate()})
	}
	return nil
}

// Drain steps until the queue is empty, returning total completions.
func (s *Server) Drain() (int, error) {
	total := 0
	for {
		n, _, err := s.Step()
		total += n
		if err != nil {
			return total, err
		}
		if n == 0 && s.pending.Len() == 0 {
			return total, nil
		}
	}
}

// Close shuts the admission queue: later Submits return Closed, and
// already-queued requests remain servable by further Steps.
func (s *Server) Close() { s.pending.Close() }

// QueueStats exposes the admission queue's counters (including drops
// after Close) for tables and tests.
func (s *Server) QueueStats() queue.Stats { return s.pending.Stats() }

// CacheHitRate reports the feature store's lifetime cache hit rate.
func (s *Server) CacheHitRate() float64 { return s.store.HitRate() }

// getTicket pops the freelist or allocates.
func (s *Server) getTicket() *Ticket {
	s.freeMu.Lock()
	if n := len(s.free); n > 0 {
		t := s.free[n-1]
		s.free = s.free[:n-1]
		s.freeMu.Unlock()
		*t = Ticket{}
		return t
	}
	s.freeMu.Unlock()
	return &Ticket{}
}

// Release hands a finished ticket back to the pool. The caller must not
// touch it afterwards.
func (s *Server) Release(t *Ticket) {
	if t == nil {
		return
	}
	s.freeMu.Lock()
	s.free = append(s.free, t)
	s.freeMu.Unlock()
}
