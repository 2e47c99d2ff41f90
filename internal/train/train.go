// Package train is the live training runtime: real Sampler goroutines
// feeding real Trainers through the global sample queue, computing real
// gradients with internal/nn and training to a real accuracy target. Each
// Trainer, and evaluation, runs its mini-batches on a minibatch.Executor,
// which owns the Sample→Compact→Gather→Forward chain and its buffers. It
// backs the convergence experiment (§7.7, Fig 16) and the runnable
// examples — everything internal/core *simulates*, this package
// *executes* (at laptop scale, on the labelled community dataset).
package train

import (
	"errors"
	"fmt"
	"sync"

	"gnnlab/internal/cache"
	"gnnlab/internal/fault"
	"gnnlab/internal/feature"
	"gnnlab/internal/gen"
	"gnnlab/internal/minibatch"
	"gnnlab/internal/nn"
	"gnnlab/internal/obs"
	"gnnlab/internal/queue"
	"gnnlab/internal/rng"
	"gnnlab/internal/sampling"
	"gnnlab/internal/tensor"
	"gnnlab/internal/workload"
)

// Options configures a training run. A zero count or size keeps its
// default; a negative one makes Train return an error.
type Options struct {
	Model     workload.ModelKind
	HiddenDim int
	BatchSize int
	// NumTrainers is the synchronous data-parallel width: gradients of
	// NumTrainers consecutive mini-batches are averaged into one update,
	// exactly modelling k GPUs exchanging gradients (§2). More trainers
	// mean fewer updates per epoch — the effect Fig 16(b) measures.
	NumTrainers int
	// NumSamplers > 0 runs that many concurrent Sampler goroutines
	// feeding the global queue (the live factored pipeline); with 0 each
	// trainer samples its own batch on demand. Both are bit-deterministic
	// and produce identical runs.
	NumSamplers int
	LR          float64
	// TargetAccuracy stops training once evaluation accuracy reaches it.
	TargetAccuracy float64
	MaxEpochs      int
	// EvalSize vertices are held out (disjoint from the training set)
	// for accuracy evaluation.
	EvalSize int
	// CacheRatio > 0 enables a real feature cache on the Trainer side,
	// filled by CachePolicy (the zero value is Random; PreSC runs PreSC#1):
	// the live analogue of §6. Optimal is an oracle over a simulated run
	// and is rejected.
	CacheRatio  float64
	CachePolicy cache.PolicyKind
	Seed        uint64
	// Obs, when non-nil, records per-minibatch gather/forward+backward/
	// step spans (process "Train", one lane per trainer plus sampler and
	// optimizer lanes) and training counters. Spans only observe: the
	// trained model and history are identical with or without it.
	Obs *obs.Recorder
	// Faults injects the plan's trainer-crash events into the live run:
	// each crash event scheduled for epoch e aborts that epoch mid-way
	// (discarding its partial updates) and restores the per-epoch
	// checkpoint, so the run recovers to bit-identical loss. An event's
	// At in (0, 1) picks the crash point as a fraction of the epoch's
	// gradient rounds; other values crash mid-epoch (simulated-time
	// horizons do not translate to live rounds). Non-crash event kinds
	// are ignored here — they only shape the simulated runtime.
	Faults *fault.Plan
}

func (o Options) withDefaults() Options {
	if o.HiddenDim == 0 {
		o.HiddenDim = 64
	}
	if o.BatchSize == 0 {
		o.BatchSize = 128
	}
	if o.NumTrainers == 0 {
		o.NumTrainers = 1
	}
	if o.LR == 0 {
		o.LR = 0.01
	}
	if o.MaxEpochs == 0 {
		o.MaxEpochs = 60
	}
	if o.EvalSize == 0 {
		o.EvalSize = 1000
	}
	if o.Seed == 0 {
		o.Seed = 42
	}
	if o.TargetAccuracy == 0 {
		o.TargetAccuracy = 0.9
	}
	return o
}

// EpochRecord is one epoch's outcome.
type EpochRecord struct {
	Epoch   int
	Loss    float64
	EvalAcc float64
	// Updates is the cumulative number of gradient updates so far.
	Updates int
}

// Result is a completed training run.
type Result struct {
	History   []EpochRecord
	Converged bool
	// EpochsToTarget / UpdatesToTarget are the costs of reaching the
	// accuracy target (0 when not converged).
	EpochsToTarget  int
	UpdatesToTarget int
	FinalAccuracy   float64
	// CacheHitRate is the real feature-cache hit rate over the training
	// gathers (0 when no cache was enabled).
	CacheHitRate float64
	// Model is the trained model (checkpoint with Model.SaveCheckpoint,
	// or keep predicting with Model.PredictWS).
	Model *nn.Model
	// Recoveries counts injected crashes the run recovered from by
	// restoring the per-epoch checkpoint.
	Recoveries int
}

// validate rejects negative counts and sizes; zero keeps the default.
func (o Options) validate() error {
	for _, f := range []struct {
		name string
		v    int
	}{
		{"NumTrainers", o.NumTrainers}, {"NumSamplers", o.NumSamplers}, {"BatchSize", o.BatchSize},
		{"HiddenDim", o.HiddenDim}, {"EvalSize", o.EvalSize}, {"MaxEpochs", o.MaxEpochs},
	} {
		if f.v < 0 {
			return fmt.Errorf("train: %s is %d, want >= 0 (0 keeps the default)", f.name, f.v)
		}
	}
	return nil
}

// Train runs sample-based GNN training on a labelled dataset until the
// accuracy target or MaxEpochs.
func Train(d *gen.Dataset, opts Options) (*Result, error) {
	if err := opts.validate(); err != nil {
		return nil, err
	}
	opts = opts.withDefaults()
	if d.Labels == nil || d.Features == nil {
		return nil, fmt.Errorf("train: dataset %s has no labels/features (use a KindCommunity preset)", d.Name)
	}
	if err := opts.Faults.Validate(); err != nil {
		return nil, fmt.Errorf("train: %w", err)
	}
	spec := workload.Spec{Kind: opts.Model, HiddenDim: opts.HiddenDim, BatchSize: opts.BatchSize}
	alg := spec.NewSampler()
	// Build any per-graph sampler tables once, before sampler goroutines
	// clone alg and race to lazily construct them.
	sampling.Prepare(alg, d.Graph)
	model := nn.NewModel(opts.Model, spec.NumLayers(), d.FeatureDim, opts.HiddenDim, d.NumClasses, opts.Seed)
	opt := tensor.NewAdam(opts.LR, model.Params())

	store, err := buildStore(d, alg, opts)
	if err != nil {
		return nil, err
	}

	// Data-parallel replicas: with k > 1 Trainers, each round trains k
	// mini-batches concurrently on k model replicas, then exchanges
	// (averages) gradients into the master — real synchronous data
	// parallelism, executed on k goroutines.
	var replicas []*nn.Model
	for i := 1; i < opts.NumTrainers; i++ {
		rep := nn.NewModel(opts.Model, spec.NumLayers(), d.FeatureDim, opts.HiddenDim, d.NumClasses, opts.Seed)
		if err := nn.CopyParams(rep.Params(), model.Params()); err != nil {
			return nil, err
		}
		replicas = append(replicas, rep)
	}

	r := rng.New(opts.Seed)

	// One executor per trainer, alive for the whole run: steady-state
	// minibatches allocate nothing from Sample to the optimizer step.
	execs := make([]*minibatch.Executor, opts.NumTrainers)
	for i := range execs {
		execs[i] = minibatch.New(alg, d.Graph, store, d.Labels)
	}
	evalSet := holdout(d, opts.EvalSize, opts.Seed)
	evalSamples := drawEvalSamples(execs[0], evalSet, opts.BatchSize, opts.Seed)
	workers := append([]*nn.Model{model}, replicas...)
	var lanes []obs.Lane // one per trainer, nil when not tracing
	if opts.Obs != nil {
		for i := range workers {
			lanes = append(lanes, opts.Obs.Lane("Train", fmt.Sprintf("trainer-%d", i)))
		}
	}

	res := &Result{Model: model}
	crashes := crashFractions(opts.Faults)
	reg := opts.Obs.Registry()
	cInjected := reg.Counter("fault.injected")
	cRecoveries := reg.Counter("train.recoveries")
	updates := 0
	for epoch := 0; epoch < opts.MaxEpochs; epoch++ {
		// The per-epoch restore point. Captured *before* the epoch's RNG
		// Split (Split advances r), so a restored run re-derives the same
		// batches; only taken when this epoch has a scheduled crash — the
		// fault-free path is untouched.
		pending := crashes[epoch]
		var ck *checkpoint
		if len(pending) > 0 {
			ck = capture(model, opt, r, store, updates)
		}

		var epochLoss float64
		for {
			er := r.Split(uint64(epoch))
			batches := sampling.Batches(d.TrainSet, opts.BatchSize, er)
			var stream *sampleStream
			if opts.NumSamplers > 0 {
				stream = produceSamples(d, alg, batches, opts, epoch)
			}

			stopAfter := -1
			if len(pending) > 0 {
				stopAfter = crashRound(pending[0], len(batches), opts.NumTrainers)
				pending = pending[1:]
			}
			var stepCount int
			var err error
			epochLoss, stepCount, err = runEpochSteps(workers, opt, execs, lanes, stream, batches, opts, epoch, stopAfter)
			if errors.Is(err, errInjectedCrash) {
				if stream != nil {
					stream.abandon()
				}
				if err := ck.restore(model, replicas, opt, r, store); err != nil {
					return nil, err
				}
				updates = ck.updates
				res.Recoveries++
				cInjected.Add(1)
				cRecoveries.Add(1)
				continue
			}
			if err != nil {
				return nil, err
			}
			updates += stepCount
			epochLoss /= float64(len(batches))
			break
		}

		// The round's workers are quiesced here and every replica equals
		// the master, so evaluation runs on all of them.
		acc, err := evaluate(workers, execs, lanes, evalSamples, len(evalSet))
		if err != nil {
			return nil, err
		}
		res.History = append(res.History, EpochRecord{
			Epoch:   epoch,
			Loss:    epochLoss,
			EvalAcc: acc,
			Updates: updates,
		})
		res.FinalAccuracy = acc
		res.CacheHitRate = store.HitRate()
		if acc >= opts.TargetAccuracy {
			res.Converged = true
			res.EpochsToTarget = epoch + 1
			res.UpdatesToTarget = updates
			break
		}
	}
	exportScratchStats(reg, execs, store)
	return res, nil
}

// exportScratchStats publishes the pooled-buffer reuse counters —
// train.scratch_samples/reuses/grows for the trainer workspaces (the
// training analogue of measure.scratch_*) and feature.gather_reuse/
// gather_grow for the Extract-stage destination buffers.
func exportScratchStats(reg *obs.Registry, execs []*minibatch.Executor, store *feature.Store) {
	var passes, reuses, grows int64
	for _, ex := range execs {
		p, r, g := ex.Stats()
		passes += p
		reuses += r
		grows += g
	}
	reg.Counter("train.scratch_samples").Add(passes)
	reg.Counter("train.scratch_reuses").Add(reuses)
	reg.Counter("train.scratch_grows").Add(grows)
	gr, gg := store.GatherStats()
	reg.Counter("feature.gather_reuse").Add(gr)
	reg.Counter("feature.gather_grow").Add(gg)
}

// errInjectedCrash is the sentinel a fault plan's trainer crash raises
// inside runEpochSteps; Train recovers from it via the epoch checkpoint.
var errInjectedCrash = errors.New("train: injected trainer crash")

// crashFractions maps epoch → that epoch's scheduled crash points from
// the plan's trainer-crash events, as fractions of the epoch's gradient
// rounds (see Options.Faults). Nil when the plan has no crash events.
func crashFractions(p *fault.Plan) map[int][]float64 {
	if p.Empty() {
		return nil
	}
	var out map[int][]float64
	for _, e := range p.Events {
		if e.Kind != fault.KindTrainerCrash {
			continue
		}
		frac := 0.5
		if e.At > 0 && e.At < 1 {
			frac = e.At
		}
		if out == nil {
			out = map[int][]float64{}
		}
		out[e.Epoch] = append(out[e.Epoch], frac)
	}
	return out
}

// crashRound converts a crash fraction into the number of gradient
// rounds that complete before the abort (at least 0, and always before
// the epoch's last round so a crash is never a silent no-op).
func crashRound(frac float64, numBatches, numTrainers int) int {
	if numTrainers < 1 {
		numTrainers = 1
	}
	rounds := (numBatches + numTrainers - 1) / numTrainers
	stop := int(frac * float64(rounds))
	if stop >= rounds {
		stop = rounds - 1
	}
	if stop < 0 {
		stop = 0
	}
	return stop
}

// checkpoint is a per-epoch restore point: everything a mid-epoch crash
// must rewind — parameter values, optimizer moments, the RNG position,
// the update count and the feature-store accounting.
type checkpoint struct {
	updates      int
	values       [][]float32
	adam         tensor.AdamState
	rng          rng.State
	hits, misses int64
}

// capture deep-copies the training state at the top of an epoch.
func capture(model *nn.Model, opt *tensor.Adam, r *rng.Rand, store *feature.Store, updates int) *checkpoint {
	ck := &checkpoint{updates: updates, adam: opt.Snapshot(), rng: r.State()}
	ck.hits, ck.misses = store.Stats()
	for _, p := range model.Params() {
		ck.values = append(ck.values, append([]float32(nil), p.Value.Data...))
	}
	return ck
}

// restore rewinds the master model, its replicas, the optimizer, the
// epoch RNG and the store counters to the checkpoint; all gradient
// accumulators are zeroed (a crashed round may have left partial sums).
func (ck *checkpoint) restore(model *nn.Model, replicas []*nn.Model, opt *tensor.Adam, r *rng.Rand, store *feature.Store) error {
	params := model.Params()
	if len(ck.values) != len(params) {
		return fmt.Errorf("train: checkpoint has %d params, model has %d", len(ck.values), len(params))
	}
	for i, p := range params {
		if len(ck.values[i]) != len(p.Value.Data) {
			return fmt.Errorf("train: checkpoint param %d size mismatch", i)
		}
		copy(p.Value.Data, ck.values[i])
		p.ZeroGrad()
	}
	if err := opt.Restore(ck.adam); err != nil {
		return err
	}
	for _, rep := range replicas {
		if err := nn.CopyParams(rep.Params(), params); err != nil {
			return err
		}
		for _, p := range rep.Params() {
			p.ZeroGrad()
		}
	}
	r.SetState(ck.rng)
	store.SetStats(ck.hits, ck.misses)
	return nil
}

// eachTrainer runs fn(i) for every Trainer i in [0, k) and returns when
// all are done: inline when k == 1, otherwise on one plain goroutine per
// Trainer. Trainers are long-lived lanes whose products and gathers post
// to the row pool (par.Run); a round that held the pool itself would run
// every Trainer's stages inline (DESIGN "Memory discipline", rule 6).
func eachTrainer(k int, fn func(i int)) {
	if k == 1 {
		fn(0)
		return
	}
	var wg sync.WaitGroup
	wg.Add(k)
	for i := 0; i < k; i++ {
		go func() {
			defer wg.Done()
			fn(i)
		}()
	}
	wg.Wait()
}

// runEpochSteps drives one epoch of synchronous data-parallel training:
// rounds of up to NumTrainers mini-batches run concurrently (one per model
// replica in workers; the master is workers[0]), gradients are averaged
// into the master, the optimizer steps, and updated parameters fan back
// out to the replicas — the live analogue of the gradient exchange in §2.
// Trainer i runs its mini-batch on execs[i], traced on lanes[i] when lanes
// is non-nil: with a nil stream the executor samples batch idx itself,
// otherwise it accepts the sample a Sampler goroutine queued for that
// batch. It returns the summed loss and
// the number of gradient updates. stopAfterRounds >= 0 injects a trainer
// crash: that many rounds complete, then the epoch aborts with
// errInjectedCrash (-1 never crashes).
func runEpochSteps(workers []*nn.Model, opt *tensor.Adam, execs []*minibatch.Executor, lanes []obs.Lane, stream *sampleStream, batches [][]int32, opts Options, epoch, stopAfterRounds int) (float64, int, error) {
	model, replicas := workers[0], workers[1:]
	rec := opts.Obs
	reg := rec.Registry()
	cBatches := reg.Counter("train.minibatches")
	cUpdates := reg.Counter("train.updates")
	cHits := reg.Counter("train.gather.hits")
	cMisses := reg.Counter("train.gather.misses")
	stepLane := rec.Lane("Train", "optimizer")
	var epochLoss float64
	// Round result buffers, hoisted out of the per-round loop: every slot
	// up to the round's width is overwritten each round before it is read.
	losses := make([]float64, len(workers))
	errs := make([]error, len(workers))
	updates := 0
	// step runs trainer i's minibatch of the round that starts at batch
	// start, on whatever goroutine calls it.
	var (
		start  int
		queued []*sampling.Sample
	)
	step := func(i int) {
		ex, idx := execs[i], start+i
		if queued != nil {
			ex.Accept(queued[i])
		} else if _, errs[i] = sampleOne(ex.Sample, batches[idx], idx, opts, epoch); errs[i] != nil {
			return
		}
		var sp *obs.Span
		if lanes != nil {
			sp = lanes[i].Start("minibatch")
		}
		if errs[i] = ex.Compact(); errs[i] != nil {
			return
		}
		gsp := sp.Child("gather")
		hits, misses := ex.Gather()
		if gsp != nil {
			gsp.End(obs.Attr{Key: "hits", Value: hits}, obs.Attr{Key: "misses", Value: misses})
		}
		cHits.Add(int64(hits))
		cMisses.Add(int64(misses))
		fbsp := sp.Child("forward+backward")
		losses[i], errs[i] = ex.LossAndGrad(workers[i])
		fbsp.End()
		if sp != nil {
			sp.End(obs.Attr{Key: "batch", Value: idx})
		}
		cBatches.Add(1)
	}
	for ; start < len(batches); start += len(workers) {
		if updates == stopAfterRounds {
			return epochLoss, updates, errInjectedCrash
		}
		width := min(len(workers), len(batches)-start)
		queued = nil
		if stream != nil {
			var err error
			if queued, err = stream.take(width); err != nil {
				return 0, 0, err
			}
		}
		eachTrainer(width, step)
		for i := 0; i < width; i++ {
			if errs[i] != nil {
				return 0, 0, errs[i]
			}
			epochLoss += losses[i]
		}
		// Gradient exchange: replicas' gradients accumulate into the
		// master in fixed order, then the averaged update applies.
		ssp := stepLane.Start("exchange+step")
		for i := 1; i < width; i++ {
			if err := nn.AccumulateGrads(model.Params(), workers[i].Params()); err != nil {
				return 0, 0, err
			}
		}
		averageGrads(opt.Params(), width)
		opt.Step()
		updates++
		cUpdates.Add(1)
		for _, rep := range replicas {
			if err := nn.CopyParams(rep.Params(), model.Params()); err != nil {
				return 0, 0, err
			}
		}
		if ssp != nil {
			ssp.End(obs.Attr{Key: "round_batches", Value: width})
		}
	}
	return epochLoss, updates, nil
}

// buildStore assembles the two-tier feature store, running the configured
// caching policy for real when a cache ratio is requested.
func buildStore(d *gen.Dataset, alg sampling.Algorithm, opts Options) (*feature.Store, error) {
	store, err := feature.NewStore(d.Features, d.FeatureDim)
	if err != nil {
		return nil, err
	}
	if opts.CacheRatio <= 0 {
		return store, nil
	}
	if opts.CachePolicy == cache.PolicyOptimal {
		return nil, fmt.Errorf("train: cache policy %v ranks by a simulated run's footprint and has no meaning on a live run", opts.CachePolicy)
	}
	r, err := cache.Rank(cache.RankSpec{Policy: opts.CachePolicy, Graph: d.Graph, Alg: alg, TrainSet: d.TrainSet,
		BatchSize: opts.BatchSize, Seed: opts.Seed, PreSCK: 1})
	if err != nil {
		return nil, fmt.Errorf("train: %w", err)
	}
	// Only the first `slots` ranking entries reach the cache table, so
	// rank just that prefix instead of all vertices.
	slots := int(opts.CacheRatio * float64(d.NumVertices()))
	table, err := cache.Load(r.Hotness.RankTop(slots), slots, d.NumVertices(), int64(d.FeatureDim)*4)
	if err != nil {
		return nil, err
	}
	if err := store.EnableCache(table); err != nil {
		return nil, err
	}
	return store, nil
}

// sampleStream delivers an epoch's samples in batch order, streamed live
// from concurrent Sampler goroutines through the global queue. Streaming
// overlaps the Sample stage with Extract+Train — the factored pipeline —
// while a reorder buffer keeps delivery order (and therefore training
// results) independent of goroutine scheduling.
type sampleStream struct {
	work    *queue.Queue[sampleTask]
	done    *queue.Queue[indexedSample]
	pending map[int]*sampling.Sample
	next    int

	// buf backs take's returned slice, reused across rounds.
	buf []*sampling.Sample
}

// abandon stops the stream mid-epoch (injected crash recovery): the
// remaining work drains unserved and the done queue closes, so blocked
// Sampler goroutines wake, drop their samples and exit.
func (st *sampleStream) abandon() {
	for {
		if _, ok, _ := st.work.TryDequeue(); !ok {
			break
		}
	}
	st.done.Close()
}

type sampleTask struct {
	idx   int
	seeds []int32
}

type indexedSample struct {
	idx int
	s   *sampling.Sample
	err error
}

// take returns the next k samples in batch order. The returned slice is
// the stream's own round buffer, valid until the next take.
func (st *sampleStream) take(k int) ([]*sampling.Sample, error) {
	if cap(st.buf) < k {
		st.buf = make([]*sampling.Sample, 0, k)
	}
	out := st.buf[:0]
	defer func() { st.buf = out }()
	for len(out) < k {
		if s, ok := st.pending[st.next]; ok {
			delete(st.pending, st.next)
			out = append(out, s)
			st.next++
			continue
		}
		item, ok := st.done.Dequeue()
		if !ok {
			return nil, fmt.Errorf("train: sample queue closed before batch %d", st.next)
		}
		if item.err != nil {
			return nil, item.err
		}
		st.pending[item.idx] = item.s
	}
	return out, nil
}

// produceSamples starts an epoch's Sample stage on the live factored
// pipeline: opts.NumSamplers (> 0) Sampler goroutines feeding the global
// queue. Each owns a ClonePooled instance of alg and enqueues a Clone of
// every sample — the paper's copy into the host-memory queue (§5.2), and
// the only place a sample outlives its arena. The per-batch RNG streams
// are keyed by (epoch, batch) so the sampled neighborhoods do not depend
// on goroutine scheduling — or on whether a Sampler or a trainer's
// executor draws them; the stream's reorder buffer keeps delivery order
// deterministic too.
func produceSamples(d *gen.Dataset, alg sampling.Algorithm, batches [][]int32, opts Options, epoch int) *sampleStream {
	work := queue.New[sampleTask](len(batches))
	// The global queue between Samplers and Trainers (§5.2); bounded so
	// producers feel backpressure like the real host-memory queue.
	done := queue.New[indexedSample](max(4, 2*opts.NumSamplers))
	for i, b := range batches {
		// Cannot fail: the queue holds len(batches) slots and is not yet
		// closed, so every task is accepted.
		work.Enqueue(sampleTask{idx: i, seeds: b})
	}
	work.Close()
	cSamples := opts.Obs.Registry().Counter("train.samples")
	cDropped := opts.Obs.Registry().Counter("queue.dropped_enqueues")
	for w := 0; w < opts.NumSamplers; w++ {
		var lane obs.Lane
		if opts.Obs != nil {
			lane = opts.Obs.Lane("Train", fmt.Sprintf("sampler-%d", w))
		}
		go func() {
			a := sampling.ClonePooled(alg)
			sample := func(seeds []int32, r *rng.Rand) *sampling.Sample { return a.Sample(d.Graph, seeds, r).Clone() }
			for {
				t, ok := work.Dequeue()
				if !ok {
					return
				}
				sp := lane.Start("sample")
				item := indexedSample{idx: t.idx}
				item.s, item.err = sampleOne(sample, t.seeds, t.idx, opts, epoch)
				if sp != nil {
					sp.End(obs.Attr{Key: "epoch", Value: epoch}, obs.Attr{Key: "batch", Value: t.idx})
				}
				cSamples.Add(1)
				if !done.Enqueue(item) {
					// The stream was cancelled (trainer abandoned the
					// epoch) and closed the queue under us: the sample is
					// dropped by design, but count it so load shedding is
					// observable, and stop — every later enqueue would
					// drop too.
					cDropped.Add(1)
					return
				}
			}
		}()
	}
	return &sampleStream{work: work, done: done, pending: map[int]*sampling.Sample{}}
}

// sampleOne runs mini-batch idx's Sample stage with its (seed, epoch,
// batch)-keyed RNG stream, converting a panicking sampling algorithm
// (e.g. a buggy user-defined one, §5.1) into an error instead of a
// deadlocked pipeline or a crashed trainer goroutine.
func sampleOne(sample func([]int32, *rng.Rand) *sampling.Sample, seeds []int32, idx int, opts Options, epoch int) (s *sampling.Sample, err error) {
	defer func() {
		if r := recover(); r != nil {
			s, err = nil, fmt.Errorf("train: sampler panicked on batch %d: %v", idx, r)
		}
	}()
	return sample(seeds, rng.New(opts.Seed^uint64(epoch)<<20^uint64(idx))), nil
}

// averageGrads scales accumulated gradients by 1/k — turning k accumulated
// mini-batch gradients into their synchronous data-parallel average.
func averageGrads(params []*tensor.Param, k int) {
	if k <= 1 {
		return
	}
	inv := 1 / float32(k)
	for _, p := range params {
		tensor.Scale(inv, p.Grad.Data)
	}
}

// holdout picks size distinct vertices outside the training set, drawn
// from rng.New(seed^0xE7A1). It builds its training-set bitmap on every
// call — O(|V|) once per run, beside a whole training run — so nothing
// that reaches d outlives Train.
func holdout(d *gen.Dataset, size int, seed uint64) []int32 {
	n := d.NumVertices()
	inTrain := make([]bool, n)
	for _, v := range d.TrainSet {
		inTrain[v] = true
	}
	r := rng.New(seed ^ 0xE7A1)
	out := make([]int32, 0, size)
	seen := make([]bool, n)
	distinct := 0
	for len(out) < size && distinct < n {
		v := int32(r.Intn(n))
		if inTrain[v] || seen[v] {
			if !seen[v] {
				seen[v] = true
				distinct++
			}
			continue
		}
		seen[v] = true
		distinct++
		out = append(out, v)
	}
	return out
}

// drawEvalSamples samples the eval set once per run, in batches of
// batchSize over one rng.New(seed^0xEA11) stream, on ex's sampler. The
// stream and order are fixed, so these are the subgraphs every epoch's
// evaluation would draw; each is a Clone, since ex's next Sample reuses
// its buffers.
func drawEvalSamples(ex *minibatch.Executor, evalSet []int32, batchSize int, seed uint64) []*sampling.Sample {
	er := rng.New(seed ^ 0xEA11)
	var out []*sampling.Sample
	for start := 0; start < len(evalSet); start += batchSize {
		end := min(start+batchSize, len(evalSet))
		out = append(out, ex.Sample(evalSet[start:end], er).Clone())
	}
	return out
}

// evaluate runs the eval samples through the trainers and returns the
// accuracy over size seeds: batch b runs on execs[b mod k] with workers[b
// mod k], k = len(execs), which equal the master after every round. Each
// batch still gathers its features, so the store's hit/miss accounting is
// what per-epoch sampling gave. With one trainer it runs inline; otherwise
// each trainer's share runs on its own goroutine, in an "evaluate" span on
// its lane when lanes is non-nil. No executor may be in use.
func evaluate(workers []*nn.Model, execs []*minibatch.Executor, lanes []obs.Lane, samples []*sampling.Sample, size int) (float64, error) {
	if size == 0 {
		return 0, nil
	}
	k := min(len(execs), len(samples))
	correct := make([]int, k)
	errs := make([]error, k)
	run := func(i int) {
		var sp *obs.Span
		if lanes != nil {
			sp = lanes[i].Start("evaluate")
		}
		ex, n := execs[i], 0
		for b := i; b < len(samples); b += len(execs) {
			n++
			ex.Accept(samples[b])
			if errs[i] = ex.Compact(); errs[i] != nil {
				return
			}
			ex.Gather()
			c, err := ex.Predict(workers[i])
			if err != nil {
				errs[i] = err
				return
			}
			correct[i] += c
		}
		if sp != nil {
			sp.End(obs.Attr{Key: "batches", Value: n})
		}
	}
	eachTrainer(k, run)
	total := 0
	for i := range correct {
		if errs[i] != nil {
			return 0, errs[i]
		}
		total += correct[i]
	}
	return float64(total) / float64(size), nil
}
