package main

import (
	"math"
	"runtime"
	"time"

	"gnnlab/internal/cache"
	"gnnlab/internal/feature"
	"gnnlab/internal/gen"
	"gnnlab/internal/nn"
	"gnnlab/internal/obs"
	"gnnlab/internal/rng"
	"gnnlab/internal/sampling"
	"gnnlab/internal/tensor"
	"gnnlab/internal/train"
	"gnnlab/internal/workload"
)

// trainSpec is one of the two training workloads.
type trainSpec struct {
	data gen.Config
	opts train.Options
	// minAccuracy is checked only where the labels are learnable (the
	// community graph); 0 skips it.
	minAccuracy float64
}

// trainInline is train.Train on the CONV preset: the store fits in cache,
// sampling is inline, and nn/tensor hold nearly all of the minibatch.
func trainInline(cfg config) trainSpec {
	data, err := gen.PresetConfig(gen.PresetConv)
	if err != nil {
		panic(err) // the preset is compiled in
	}
	data = gen.ScaleDown(data, cfg.sz.convDiv)
	data.Seed = cfg.seed
	return trainSpec{
		data: data,
		opts: train.Options{
			Model: workload.GraphSAGE, HiddenDim: 64, BatchSize: 128,
			NumTrainers: 1, NumSamplers: 0,
			TargetAccuracy: 2, // unreachable: every call runs all its epochs
			MaxEpochs:      cfg.sz.trainEpochs,
			Seed:           cfg.seed | 1<<40,
		},
		minAccuracy: cfg.sz.minAccuracy,
	}
}

// socialData is the graph that does not fit in cache: wide materialised
// rows over a heavy-tailed topology, shared by train-factored and
// serve-open (at its own feature width).
func socialData(cfg config, featureDim int) gen.Config {
	return gen.Config{
		Name: "social", Kind: gen.KindSocial,
		NumVertices: cfg.sz.socialVertices, NumEdges: int64(cfg.sz.socialVertices) * 20,
		FeatureDim: featureDim, TrainFraction: 0.10,
		NumClasses: 16, MaterializeFeatures: true,
		Seed: cfg.seed,
	}
}

// trainFactored is the paper's live design: a Sampler goroutine feeding
// two Trainers through internal/queue, gradient averaging, and a PreSC
// feature cache over 256-dim rows.
func trainFactored(cfg config) trainSpec {
	return trainSpec{
		data: socialData(cfg, 256),
		opts: train.Options{
			Model: workload.GCN, HiddenDim: 32, BatchSize: 128,
			NumTrainers: 2, NumSamplers: 1,
			CacheRatio:     0.1,
			TargetAccuracy: 2,
			MaxEpochs:      cfg.sz.trainEpochs,
			Seed:           cfg.seed | 1<<40,
		},
	}
}

func runTrain(cfg config, spec trainSpec, res *result) error {
	if cfg.traced {
		return runTrainTraced(cfg, spec, res)
	}
	d, err := timedSetup(cfg, res, func() (*gen.Dataset, error) { return gen.Generate(spec.data) })
	if err != nil {
		return err
	}

	// Repetition 0 warms the heap and the page cache and is not timed; the
	// rest run until the budget is spent.
	start := time.Now()
	var walls []float64
	var digests []uint64
	for rep := 0; ; rep++ {
		t0 := time.Now()
		tr, err := train.Train(d, spec.opts)
		wall := time.Since(t0).Seconds()
		res.Attempted++
		if err != nil || !trainOutcomeOK(tr, spec) {
			res.Failed++
			if err != nil {
				return err
			}
		}
		digests = append(digests, lossDigest(tr))
		if rep > 0 {
			walls = append(walls, wall)
		}
		if rep > 0 && time.Since(start).Seconds()+wall > cfg.seconds {
			break
		}
	}
	res.expect("loss history identical across repetitions", allEqual(digests), "digests %x", digests)
	res.expect("every repetition finite and accurate enough", res.Failed == 0, "%d of %d repetitions failed", res.Failed, res.Attempted)

	seedsPerCall := float64(spec.opts.MaxEpochs * len(d.TrainSet))
	rates := make([]float64, len(walls))
	epochS := make([]float64, len(walls))
	for i, w := range walls {
		rates[i] = seedsPerCall / w
		epochS[i] = w / float64(spec.opts.MaxEpochs)
	}
	s := summarize(rates)
	res.putN("work_per_s", s.P50, s.N, 50)
	res.putTiming("op_p50_ms", "op_tail_ms", epochS, 1e3)
	res.put("goodput", 1-float64(res.Failed)/float64(res.Attempted))
	res.Notes["work_unit"] = "training seed"
	res.Notes["op"] = "one epoch of train.Train (call wall / epochs)"
	res.Notes["train_set"] = len(d.TrainSet)
	return nil
}

// trainOutcomeOK is the per-repetition check: all epochs ran, the loss
// stayed finite, and (where asked) the model learned.
func trainOutcomeOK(tr *train.Result, spec trainSpec) bool {
	if tr == nil || len(tr.History) != spec.opts.MaxEpochs {
		return false
	}
	for _, e := range tr.History {
		if math.IsNaN(e.Loss) || math.IsInf(e.Loss, 0) {
			return false
		}
	}
	return tr.FinalAccuracy >= spec.minAccuracy
}

// lossDigest hashes the exact bits of a run's loss and accuracy history.
func lossDigest(tr *train.Result) uint64 {
	h := newDigest()
	if tr != nil {
		for _, e := range tr.History {
			h.float(e.Loss)
			h.float(e.EvalAcc)
		}
	}
	return h.sum()
}

// runTrainTraced produces the per-layer numbers: a few whole train.Train
// calls for the references (wall per epoch, allocations, Obs overhead),
// then the same minibatch chain hand-sequenced on one goroutine with a
// span around each stage.
func runTrainTraced(cfg config, spec trainSpec, res *result) error {
	rec := newRecorder()
	ln := rec.lane("trainer")
	var d *gen.Dataset
	var err error
	ln.time("gen.generate", 0, func() { d, err = gen.Generate(spec.data) })
	if err != nil {
		return err
	}
	res.put("gen.generate_s", median(rec.selfOf("gen.generate")))

	// The hand-sequenced chain mirrors train.Train's seed derivations so the
	// sampled work is the same work. Its warm-up epoch runs before the chain
	// is given a lane: buffers reach their high-water mark and nothing
	// enters the statistics.
	c, err := newTrainChain(d, spec.opts, ln)
	if err != nil {
		return err
	}
	if err := c.epoch(0); err != nil {
		return err
	}
	c.ln = ln
	c.resetCounters()

	// reference times one whole train.Train call, the real entry point.
	reference := func(o *obs.Recorder) (wall, mallocs float64, err error) {
		opts := spec.opts
		opts.Obs = o
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		t0 := time.Now()
		tr, err := train.Train(d, opts)
		wall = time.Since(t0).Seconds()
		runtime.ReadMemStats(&after)
		res.Attempted++
		if err == nil && !trainOutcomeOK(tr, spec) {
			res.Failed++
		}
		return wall, float64(after.Mallocs - before.Mallocs), err
	}
	if _, _, err := reference(nil); err != nil { // warm-up
		return err
	}
	// Rounds of a plain call, a call with an obs.Recorder and as many chain
	// epochs as a call has: the three are compared with one another, so
	// they take turns while the host's speed drifts.
	start := time.Now()
	var plain, observed []float64
	var mallocs float64
	epochs := 0
	for {
		roundStart := time.Now()
		wall, m, err := reference(nil)
		if err != nil {
			return err
		}
		plain, mallocs = append(plain, wall), m
		if wall, _, err = reference(obs.NewRecorder()); err != nil {
			return err
		}
		observed = append(observed, wall)
		for e := 0; e < spec.opts.MaxEpochs; e++ {
			epochs++
			if err := c.epoch(epochs); err != nil {
				return err
			}
		}
		if time.Since(start).Seconds()+time.Since(roundStart).Seconds() > cfg.seconds {
			break
		}
	}
	res.Attempted += int64(epochs)
	batchesPerEpoch := sampling.NumBatches(len(d.TrainSet), spec.opts.BatchSize)
	trainEpochS := median(plain) / float64(spec.opts.MaxEpochs)
	res.put("obs.overhead_share", median(observed)/median(plain)-1)
	res.put("train.allocs_per_minibatch", mallocs/float64(spec.opts.MaxEpochs*batchesPerEpoch))

	shares := rec.shares("minibatch")
	expectSharesSumToOne(res, shares)

	c.put(res, rec, shares, d.FeatureDim, spec.opts.HiddenDim, false)
	fwd, fwdbwd := median(rec.selfOf("nn.forward")), median(rec.selfOf("nn.fwdbwd"))
	res.put("nn.forward_ms", fwd*1e3)
	res.put("nn.fwdbwd_ms", fwdbwd*1e3)
	res.put("nn.backward_ms", (fwdbwd-fwd)*1e3)
	res.put("nn.busy_share", shares["nn.compact"]+shares["nn.fwdbwd"])
	res.putTiming("tensor.adam_step_ms", "", rec.selfOf("tensor.adam_step"), 1e3)
	if spec.opts.CacheRatio > 0 {
		for _, stage := range []string{"cache.presc", "cache.ranktop", "cache.load", "feature.enable_cache"} {
			res.put(stage+"_ms", 1e3*median(rec.selfOf(stage)))
		}
	}

	// Coverage: the chain's training-minibatch time per epoch over
	// train.Train's wall per epoch. The remainder is evaluation, PreSC,
	// model set-up and goroutine orchestration; with concurrent trainers
	// the serial chain exceeds the wall and coverage passes 1.
	var epochS []float64 // per chain epoch, its minibatches' summed time
	for i, cs := 0, cycleSeconds(ln, "minibatch"); i+batchesPerEpoch <= len(cs); i += batchesPerEpoch {
		epochS = append(epochS, sum(cs[i:i+batchesPerEpoch]))
	}
	coverage := median(epochS) / trainEpochS
	res.put("train.chain_coverage", coverage)
	res.put("train.overhead_share", 1-coverage)
	if serial := spec.opts.NumTrainers == 1 && spec.opts.NumSamplers == 0; serial && cfg.sz.minCoverage > 0 {
		res.expect("hand-sequenced chain explains the epoch", coverage >= cfg.sz.minCoverage && coverage <= 1.15, "coverage %.3f", coverage)
	}
	res.expect("every reference call finite and accurate enough", res.Failed == 0, "%d failed", res.Failed)
	res.Notes["chain_epochs"] = epochs
	return rec.writeTrace(cfg.tracePath)
}

// cycleSeconds returns the duration of every root span called name.
func cycleSeconds(l *lane, name string) []float64 {
	var out []float64
	for _, s := range l.spans {
		if s.parent < 0 && s.name == name {
			out = append(out, (s.end - s.start).Seconds())
		}
	}
	return out
}

// trainChain hand-sequences train.Train's minibatch path from public
// calls: Sample → NewCompactInto → GatherInto → LossAndGradWS per
// trainer, then gradient exchange and Adam.Step per round; and the
// per-epoch evaluation pass (Sample → … → PredictWS).
type trainChain struct {
	d          *gen.Dataset
	opts       train.Options
	ln         *lane
	chainStats // alg is the pooled clone sampling the training batches
	evalAlg    sampling.Algorithm
	workers    []*nn.Model // workers[0] is the master
	adam       *tensor.Adam
	compacts   []nn.Compact
	feats      []tensor.Matrix
	labels     [][]int32
	evalSet    []int32
	shuffle    *rng.Rand

	cycle int
}

// newTrainChain builds the chain, recording the cache set-up stages on
// setupLane; the chain's own lane stays nil until the caller sets it.
func newTrainChain(d *gen.Dataset, opts train.Options, setupLane *lane) (*trainChain, error) {
	spec := workload.Spec{Kind: opts.Model, HiddenDim: opts.HiddenDim, BatchSize: opts.BatchSize}
	alg := spec.NewSampler()
	sampling.Prepare(alg, d.Graph)
	c := &trainChain{
		d: d, opts: opts,
		chainStats: chainStats{alg: sampling.ClonePooled(alg)},
		evalAlg:    sampling.ClonePooled(alg),
		shuffle:    rng.New(opts.Seed),
	}
	for i := 0; i < opts.NumTrainers; i++ {
		m := nn.NewModel(opts.Model, spec.NumLayers(), d.FeatureDim, opts.HiddenDim, d.NumClasses, opts.Seed)
		c.workers = append(c.workers, m)
		c.ws = append(c.ws, nn.NewWorkspace())
	}
	c.compacts = make([]nn.Compact, opts.NumTrainers)
	c.feats = make([]tensor.Matrix, opts.NumTrainers)
	c.labels = make([][]int32, opts.NumTrainers)
	c.adam = tensor.NewAdam(0.01, c.workers[0].Params())

	var err error
	if c.store, err = feature.NewStore(d.Features, d.FeatureDim); err != nil {
		return nil, err
	}
	if opts.CacheRatio > 0 {
		slots := int(opts.CacheRatio * float64(d.NumVertices()))
		var hot cache.Hotness
		setupLane.time("cache.presc", 0, func() {
			hot = cache.PreSC(d.Graph, alg, d.TrainSet, opts.BatchSize, 1, opts.Seed^0x12345).Hotness
		})
		if err := loadCache(setupLane, 0, c.store, hot, slots, d); err != nil {
			return nil, err
		}
	}
	// The hold-out draw is train's own; any fixed set of non-training
	// vertices of the same size gives the evaluation pass the same shape.
	inTrain := make([]bool, d.NumVertices())
	for _, v := range d.TrainSet {
		inTrain[v] = true
	}
	for v := 0; v < d.NumVertices() && len(c.evalSet) < 1000; v++ {
		if !inTrain[v] {
			c.evalSet = append(c.evalSet, int32(v))
		}
	}
	return c, nil
}

// epoch runs one epoch: rounds of NumTrainers minibatches, then the
// evaluation pass.
func (c *trainChain) epoch(epoch int) error {
	ln, k := c.ln, len(c.workers)
	er := c.shuffle.Split(uint64(epoch))
	batches := sampling.Batches(c.d.TrainSet, c.opts.BatchSize, er)
	master := c.workers[0]
	for start := 0; start < len(batches); start += k {
		end := min(start+k, len(batches))
		for i, seeds := range batches[start:end] {
			c.cycle++
			root := ln.begin("minibatch", c.cycle)
			var s *sampling.Sample
			r := rng.New(c.opts.Seed ^ uint64(epoch)<<20 ^ uint64(start+i))
			ln.time("sampling.sample", c.cycle, func() { s = c.alg.Sample(c.d.Graph, seeds, r) })
			var err error
			ln.time("nn.compact", c.cycle, func() { err = nn.NewCompactInto(&c.compacts[i], s) })
			if err != nil {
				return err
			}
			ln.time("feature.gather", c.cycle, func() { c.store.GatherInto(&c.feats[i], s) })
			c.labels[i] = nn.SeedLabelsInto(c.labels[i], s, c.d.Labels)
			ln.time("nn.fwdbwd", c.cycle, func() {
				_, _, err = c.workers[i].LossAndGradWS(c.ws[i], &c.compacts[i], &c.feats[i], c.labels[i])
			})
			if err != nil {
				return err
			}
			c.observe(s)
			// The round's last minibatch carries the exchange and the step,
			// as the last trainer to finish does in train.Train.
			if start+i == end-1 {
				for w := 1; w < end-start; w++ {
					if err := nn.AccumulateGrads(master.Params(), c.workers[w].Params()); err != nil {
						return err
					}
				}
				if n := end - start; n > 1 {
					for _, p := range c.adam.Params() {
						tensor.Scale(1/float32(n), p.Grad.Data)
					}
				}
				ln.time("tensor.adam_step", c.cycle, c.adam.Step)
				for _, rep := range c.workers[1:] {
					if err := nn.CopyParams(rep.Params(), master.Params()); err != nil {
						return err
					}
				}
			}
			ln.end(root)
		}
	}
	// Evaluation: forward only, trainer 0's buffers.
	er = rng.New(c.opts.Seed ^ 0xEA11)
	for start := 0; start < len(c.evalSet); start += c.opts.BatchSize {
		c.cycle++
		end := min(start+c.opts.BatchSize, len(c.evalSet))
		root := ln.begin("evaluate", c.cycle)
		s := c.evalAlg.Sample(c.d.Graph, c.evalSet[start:end], er)
		if err := nn.NewCompactInto(&c.compacts[0], s); err != nil {
			return err
		}
		c.store.GatherInto(&c.feats[0], s)
		c.labels[0] = nn.SeedLabelsInto(c.labels[0], s, c.d.Labels)
		var err error
		ln.time("nn.forward", c.cycle, func() {
			_, err = master.PredictWS(c.ws[0], &c.compacts[0], &c.feats[0], c.labels[0])
		})
		if err != nil {
			return err
		}
		ln.end(root)
	}
	return nil
}
