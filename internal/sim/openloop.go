package sim

// Open-loop serving simulation: under an open-loop request stream
// (arrivals do not wait for completions), what latency distribution and
// maximum sustainable QPS does a Sampler/Trainer split deliver?
//
// Serve is the epoch loop's second arrival source (Produce is the
// first). It owns only what belongs to serving, mirroring
// internal/serve's live pipeline: admission into a bounded queue
// (load-shed when the queue is full or the projected wait already
// exceeds the deadline) and batch formation on free Samplers. Each
// sampled microbatch becomes a Task, ready when its Sample stage ends,
// and one Consume call drains them under the epoch's rules: Ready
// order, the Trainer that would start training first, and the same
// fault set (crash-requeue, slowdown windows, ExtractDegrade,
// QueueStalls, which also delay batch formation).
//
// Determinism rule: Serve is a pure function of its config — arrival
// streams are seed-keyed, so the same seed yields a bit-identical
// ServeResult at any host or worker count.

import (
	"math"
	"sort"

	"gnnlab/internal/rng"
)

// ArrivalStream yields successive interarrival gaps. Implementations
// must be deterministic for reproducible serving reports.
type ArrivalStream interface {
	// Next returns the gap between the previous arrival and the next
	// one; gaps must be non-negative.
	Next() Seconds
}

// poissonStream draws exponential interarrival gaps — a seed-keyed
// Poisson process at a fixed rate.
type poissonStream struct {
	r    *rng.Rand
	mean Seconds
}

func (p *poissonStream) Next() Seconds { return p.r.ExpFloat64() * p.mean }

// PoissonArrivals returns a deterministic Poisson arrival stream at qps
// requests per second, keyed by seed.
func PoissonArrivals(seed uint64, qps float64) ArrivalStream {
	if !(qps > 0) {
		panic("sim: PoissonArrivals with non-positive qps")
	}
	return &poissonStream{r: rng.New(seed), mean: 1 / qps}
}

// traceStream cycles over a recorded gap sequence — trace-driven
// arrivals for replaying a production interarrival profile.
type traceStream struct {
	gaps []Seconds
	next int
}

func (t *traceStream) Next() Seconds {
	g := t.gaps[t.next]
	t.next++
	if t.next == len(t.gaps) {
		t.next = 0
	}
	return g
}

// TraceArrivals returns an arrival stream replaying gaps cyclically.
// Gaps must be non-negative (zero models a burst).
func TraceArrivals(gaps []Seconds) ArrivalStream {
	if len(gaps) == 0 {
		panic("sim: TraceArrivals with no gaps")
	}
	own := make([]Seconds, len(gaps))
	for i, g := range gaps {
		if g < 0 || math.IsNaN(g) {
			panic("sim: TraceArrivals gap must be non-negative")
		}
		own[i] = g
	}
	return &traceStream{gaps: own}
}

// BatchCost is the affine cost model of one serving microbatch: each
// stage pays a fixed per-batch overhead (kernel launches, queue
// bookkeeping — the host-side metadata costs that dominate small
// requests) plus a per-request marginal cost. Microbatching wins exactly
// when the fixed part amortizes across coalesced requests.
type BatchCost struct {
	SampleFixed, SamplePerReq   Seconds
	ExtractFixed, ExtractPerReq Seconds
	TrainFixed, TrainPerReq     Seconds
}

func (c BatchCost) sample(k int) Seconds  { return c.SampleFixed + Seconds(k)*c.SamplePerReq }
func (c BatchCost) extract(k int) Seconds { return c.ExtractFixed + Seconds(k)*c.ExtractPerReq }
func (c BatchCost) train(k int) Seconds   { return c.TrainFixed + Seconds(k)*c.TrainPerReq }

// batchEstimate is the steady-state service time a full batch adds to
// the backlog: sampling amortized over the Sampler pool, Extract+Forward
// over the Trainer pool. Admission control multiplies it by the number
// of batches ahead to project queueing delay.
func (c BatchCost) batchEstimate(batchSize, samplers, trainers int) Seconds {
	return c.sample(batchSize)/Seconds(samplers) +
		(c.extract(batchSize)+c.train(batchSize))/Seconds(trainers)
}

// ServeConfig configures one open-loop serving run.
type ServeConfig struct {
	// Samplers and Trainers split the GPUs between neighborhood
	// sampling and Extract→Forward execution, the serving analogue of
	// the paper's factored allocation.
	Samplers, Trainers int
	// BatchSize caps how many pending requests one microbatch coalesces.
	BatchSize int
	// QueueCap bounds the admission queue; arrivals beyond it are shed.
	QueueCap int
	// Deadline is the per-request latency budget, measured from
	// arrival. Admission sheds requests whose projected wait exceeds
	// it, and requests still queued past it are dropped at batch
	// formation.
	Deadline Seconds
	// Cost is the microbatch stage cost model.
	Cost BatchCost
	// Arrivals drives the open-loop request stream.
	Arrivals ArrivalStream
	// Requests is how many arrivals to offer.
	Requests int
	// Pipelined lets a Trainer's Extract of batch k+1 overlap Forward
	// of batch k, as in the training pipeline (§5.2).
	Pipelined bool
	// Faults injects the epoch loop's deterministic fault set onto the
	// Trainers (crashes, slowdown windows, PCIe degrade, queue stalls).
	// Nil injects nothing.
	Faults *Faults
}

// ServeResult summarizes one open-loop serving run. All fields are
// deterministic functions of the ServeConfig.
type ServeResult struct {
	// Offered is the total arrivals; Admitted entered the queue.
	Offered, Admitted int
	// ShedQueueFull and ShedDeadline count admission rejections: a full
	// queue, or a projected wait already past the deadline.
	ShedQueueFull, ShedDeadline int
	// Expired counts admitted requests dropped at batch formation
	// because their deadline passed while queued.
	Expired int
	// Served counts requests that completed (possibly late).
	Served int
	// DeadlineMiss counts served requests that finished past their
	// deadline.
	DeadlineMiss int
	// Batches is the number of dispatched microbatches; Requeued counts
	// batch re-dispatches after a Trainer crash aborted the attempt.
	Batches, Requeued int
	// P50/P90/P99/Max/Mean summarize served-request latency
	// (nearest-rank percentiles over the exact latency set).
	P50, P90, P99, Max, Mean Seconds
	// Makespan is when the last batch completed.
	Makespan Seconds
	// MeanBatchOccupancy is the average number of requests per batch —
	// how well microbatching amortized the fixed stage costs.
	MeanBatchOccupancy float64
	// MaxQueueDepth is the admission queue's high-water mark.
	MaxQueueDepth int
	// TrainerBusy is accumulated busy time per Trainer, including
	// occupancy lost to crash-aborted attempts.
	TrainerBusy []Seconds
}

// openRequest is one request's arrival and deadline.
type openRequest struct {
	arrive   Seconds
	deadline Seconds
}

// Serve runs one open-loop serving simulation. It is a pure function of
// cfg: the same config (and a fresh identically-seeded ArrivalStream)
// yields a bit-identical result.
func Serve(cfg ServeConfig) ServeResult {
	switch {
	case cfg.Samplers <= 0:
		panic("sim: Serve with no samplers")
	case cfg.Trainers <= 0:
		panic("sim: Serve with no trainers")
	case cfg.BatchSize <= 0:
		panic("sim: Serve with non-positive batch size")
	case cfg.QueueCap <= 0:
		panic("sim: Serve with non-positive queue capacity")
	case !(cfg.Deadline > 0):
		panic("sim: Serve with non-positive deadline")
	case cfg.Requests <= 0:
		panic("sim: Serve with no requests")
	case cfg.Arrivals == nil:
		panic("sim: Serve with no arrival stream")
	}

	reqs := make([]openRequest, cfg.Requests)
	now := Seconds(0)
	for i := range reqs {
		gap := cfg.Arrivals.Next()
		if gap < 0 || math.IsNaN(gap) {
			panic("sim: arrival stream produced a negative gap")
		}
		now += gap
		reqs[i] = openRequest{arrive: now, deadline: now + cfg.Deadline}
	}

	res := ServeResult{Offered: cfg.Requests}
	samplerFree := make([]Seconds, cfg.Samplers)
	pending := make([]int, 0, cfg.QueueCap)
	// Formed microbatches, in formation order: batch b is tasks[b], and
	// its requests are members[bounds[b]:bounds[b+1]].
	var tasks []Task
	members := make([]int, 0, cfg.Requests)
	bounds := []int{0}
	perBatch := cfg.Cost.batchEstimate(cfg.BatchSize, cfg.Samplers, cfg.Trainers)

	// formBatches coalesces pending requests into microbatches on free
	// Samplers, as long as formation starts strictly before `until`.
	// Requests whose deadline passed while queued are dropped here. A
	// formed batch enters the global queue when its Sample stage ends.
	formBatches := func(until Seconds) {
		for len(pending) > 0 {
			s := argmin(samplerFree)
			start := samplerFree[s]
			if a := reqs[pending[0]].arrive; a > start {
				start = a
			}
			start = cfg.Faults.stallClamp(start)
			if start >= until {
				return
			}
			first := len(members)
			for len(pending) > 0 && len(members)-first < cfg.BatchSize {
				r := pending[0]
				if reqs[r].arrive > start {
					break // arrived after this batch's formation
				}
				pending = pending[1:]
				if start > reqs[r].deadline {
					res.Expired++
					continue
				}
				members = append(members, r)
			}
			k := len(members) - first
			if k == 0 {
				continue // drained only expired requests; re-plan
			}
			sample := cfg.Cost.sample(k)
			samplerFree[s] = start + sample
			tasks = append(tasks, Task{Sample: sample, Extract: cfg.Cost.extract(k),
				Train: cfg.Cost.train(k), Ready: samplerFree[s], Producer: s})
			bounds = append(bounds, len(members))
		}
	}

	for i := range reqs {
		formBatches(reqs[i].arrive)
		// Admission control: a full queue sheds outright; otherwise the
		// projected wait — current backlog of batches ahead times the
		// steady-state batch service estimate, plus the Samplers' own
		// lag — must fit the deadline.
		if len(pending) >= cfg.QueueCap {
			res.ShedQueueFull++
			continue
		}
		batchesAhead := (len(pending) + cfg.BatchSize) / cfg.BatchSize
		projected := Seconds(batchesAhead) * perBatch
		if lag := samplerFree[argmin(samplerFree)] - reqs[i].arrive; lag > 0 {
			projected += lag
		}
		if projected > cfg.Deadline {
			res.ShedDeadline++
			continue
		}
		pending = append(pending, i)
		res.Admitted++
		if len(pending) > res.MaxQueueDepth {
			res.MaxQueueDepth = len(pending)
		}
	}
	formBatches(math.Inf(1))

	// The Trainers drain the sampled batches through the epoch loop.
	run := Consume(tasks, ConsumeOptions{NumTrainers: cfg.Trainers,
		Pipelined: cfg.Pipelined, Faults: cfg.Faults, Trace: true})
	res.Batches = len(tasks)
	res.Requeued = run.Requeued
	res.Makespan = run.Makespan
	res.TrainerBusy = run.TrainerBusy
	latencies := make([]Seconds, 0, len(members))
	var latencySum Seconds
	for _, rec := range run.Timeline {
		for _, r := range members[bounds[rec.Task]:bounds[rec.Task+1]] {
			lat := rec.TrainEnd - reqs[r].arrive
			latencies = append(latencies, lat)
			latencySum += lat
			if rec.TrainEnd > reqs[r].deadline {
				res.DeadlineMiss++
			}
		}
	}
	res.Served = len(latencies)

	if res.Batches > 0 {
		res.MeanBatchOccupancy = float64(len(members)) / float64(res.Batches)
	}
	if len(latencies) > 0 {
		sort.Float64s(latencies)
		res.P50 = pctNearestRank(latencies, 0.50)
		res.P90 = pctNearestRank(latencies, 0.90)
		res.P99 = pctNearestRank(latencies, 0.99)
		res.Max = latencies[len(latencies)-1]
		res.Mean = latencySum / Seconds(len(latencies))
	}
	return res
}

// pctNearestRank returns the nearest-rank percentile of a sorted sample
// — exact and deterministic, no interpolation.
func pctNearestRank(sorted []Seconds, q float64) Seconds {
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

// SustainOptions tunes the MaxSustainableQPS search.
type SustainOptions struct {
	// Requests per trial (0 = 2000).
	Requests int
	// MaxShedFraction is the highest tolerated fraction of offered
	// requests lost to shedding + expiry at a sustainable rate
	// (0 = 0.01).
	MaxShedFraction float64
}

// MaxSustainableQPS finds the highest Poisson arrival rate the
// configuration sustains — shed fraction within tolerance AND p99 within
// the deadline — by doubling until failure then bisecting. The search
// uses a fixed trial seed and fixed iteration counts, so the result is
// deterministic. It returns the rate and the ServeResult at that rate
// (zero result if even the lowest probed rate is unsustainable).
func MaxSustainableQPS(cfg ServeConfig, seed uint64, opt SustainOptions) (float64, ServeResult) {
	if opt.Requests <= 0 {
		opt.Requests = 2000
	}
	if opt.MaxShedFraction <= 0 {
		opt.MaxShedFraction = 0.01
	}
	trial := func(qps float64) (ServeResult, bool) {
		c := cfg
		c.Arrivals = PoissonArrivals(seed, qps)
		c.Requests = opt.Requests
		r := Serve(c)
		lost := float64(r.ShedQueueFull+r.ShedDeadline+r.Expired) / float64(r.Offered)
		return r, lost <= opt.MaxShedFraction && r.P99 <= cfg.Deadline
	}

	lo, hi := 0.0, 1.0
	best := ServeResult{}
	for i := 0; i < 40; i++ { // double until the rate collapses
		r, ok := trial(hi)
		if !ok {
			break
		}
		lo, best = hi, r
		hi *= 2
	}
	if lo == 0 { // even 1 QPS unsustainable: probe down toward zero
		probe := 1.0
		for i := 0; i < 24 && lo == 0; i++ {
			probe /= 2
			if r, ok := trial(probe); ok {
				lo, best = probe, r
				hi = probe * 2
			}
		}
		if lo == 0 {
			return 0, ServeResult{}
		}
	}
	for i := 0; i < 24; i++ { // bisect [sustainable lo, unsustainable hi)
		mid := (lo + hi) / 2
		if r, ok := trial(mid); ok {
			lo, best = mid, r
		} else {
			hi = mid
		}
	}
	return lo, best
}
