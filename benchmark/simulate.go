package main

import (
	"fmt"
	"math"
	"time"

	"gnnlab"
	"gnnlab/internal/cache"
	"gnnlab/internal/gen"
	"gnnlab/internal/graph"
	"gnnlab/internal/par"
	"gnnlab/internal/sampling"
)

const (
	simGPUs = 8
	// simEpochs is core.Config's default, written out because the traced
	// run scales its one hand-sequenced epoch by it.
	simEpochs = 3
)

// simCase is one cell of the sweep: a model, a system and a topology
// representation.
type simCase struct {
	model  gnnlab.ModelKind
	system string
	packed bool
	cfg    gnnlab.SystemConfig
}

var simModels = []gnnlab.ModelKind{gnnlab.ModelGCN, gnnlab.ModelGraphSAGE, gnnlab.ModelPinSAGE}

var simSystems = []struct {
	name string
	make func(gnnlab.Workload, int) gnnlab.SystemConfig
}{
	{"GNNLab", gnnlab.NewGNNLab},
	{"T_SOTA", gnnlab.NewTSOTA},
	{"DGL", gnnlab.NewDGL},
}

// sweepCases lists the 18 configurations in a fixed order. Memory is
// scaled with the dataset so capacity ratios stay those of the preset.
func sweepCases(cfg config) []simCase {
	var out []simCase
	for _, m := range simModels {
		for _, sys := range simSystems {
			for _, packed := range []bool{false, true} {
				sc := sys.make(gnnlab.NewWorkload(m), simGPUs)
				sc.Epochs = simEpochs
				sc.MemScale = float64(cfg.sz.paDiv)
				sc.GPUMemory = gnnlab.DefaultGPUMemory / int64(cfg.sz.paDiv)
				out = append(out, simCase{model: m, system: sys.name, packed: packed, cfg: sc})
			}
		}
	}
	return out
}

// simData is the PA citation graph as CSR and as packed topology.
type simData struct {
	csr, packed *gen.Dataset
}

func (s simData) of(c simCase) *gen.Dataset {
	if c.packed {
		return s.packed
	}
	return s.csr
}

// buildSimData generates and packs. It packs with graph.Pack directly, as
// gen.PackDataset does minus that function's process-wide memo, which
// would keep every repetition's graph alive.
func buildSimData(cfg config, ln *lane) (simData, error) {
	dc, err := gen.PresetConfig(gen.PresetPA)
	if err != nil {
		return simData{}, err
	}
	dc = gen.ScaleDown(dc, cfg.sz.paDiv)
	dc.Seed = cfg.seed
	var d *gen.Dataset
	ln.time("gen.generate", 0, func() { d, err = gen.Generate(dc) })
	if err != nil {
		return simData{}, err
	}
	pd := *d
	ln.time("gen.pack", 0, func() { pd.Graph = graph.Pack(d.CSR(), par.Workers(0)) })
	return simData{csr: d, packed: &pd}, nil
}

// sweepOutcome is what one sweep leaves behind for the checks.
type sweepOutcome struct {
	digest    uint64
	failed    int64
	epochTime map[string]float64 // "model/system/repr" → simulated epoch time
	configS   []float64          // wall per Measure+Replay pair
}

// sweep runs the 18 Measure+Replay pairs. With a lane it records a span
// around each call.
func sweep(data simData, cases []simCase, ln *lane, cycle0 int) sweepOutcome {
	out := sweepOutcome{epochTime: map[string]float64{}}
	h := newDigest()
	for i, c := range cases {
		d := data.of(c)
		cyc := cycle0 + i
		t0 := time.Now()
		root := ln.begin("config", cyc)
		var m *gnnlab.Measurement
		var rep *gnnlab.Report
		var err error
		ln.time("measure.collect", cyc, func() { m, err = gnnlab.Measure(d, c.cfg) })
		if err == nil {
			ln.time("core.replay", cyc, func() { rep, err = gnnlab.Replay(m, c.cfg) })
		}
		ln.end(root)
		out.configS = append(out.configS, time.Since(t0).Seconds())
		if err != nil || rep.OOM || !(rep.EpochTime > 0) || math.IsInf(rep.EpochTime, 0) {
			out.failed++
			continue
		}
		h.float(rep.EpochTime)
		h.float(rep.HitRate)
		out.epochTime[caseKey(c)] = rep.EpochTime
	}
	out.digest = h.sum()
	return out
}

func caseKey(c simCase) string {
	repr := "csr"
	if c.packed {
		repr = "packed"
	}
	return fmt.Sprintf("%s/%s/%s", c.model, c.system, repr)
}

// checkSweep verifies what must hold for any sweep whatever the host's
// speed: the packed topology simulates to the same epoch time as CSR, and
// the paper's ordering GNNLab < T_SOTA < DGL holds per model.
func checkSweep(res *result, o sweepOutcome) {
	sameRepr, ordered := true, true
	for _, m := range simModels {
		var prev float64
		for _, sys := range simSystems {
			csr := o.epochTime[fmt.Sprintf("%s/%s/csr", m, sys.name)]
			packed := o.epochTime[fmt.Sprintf("%s/%s/packed", m, sys.name)]
			if sys.name == "GNNLab" && csr != packed {
				sameRepr = false
			}
			if !(csr > prev) {
				ordered = false
			}
			prev = csr
		}
	}
	res.expect("GNNLab CSR and Packed epoch times equal", sameRepr, "%v", o.epochTime)
	res.expect("GNNLab < T_SOTA < DGL epoch time per model", ordered, "%v", o.epochTime)
}

func runSimulate(cfg config, res *result) error {
	if cfg.traced {
		return runSimulateTraced(cfg, res)
	}
	data, err := timedSetup(cfg, res, func() (simData, error) { return buildSimData(cfg, nil) })
	if err != nil {
		return err
	}
	cases := sweepCases(cfg)

	// Sweep 0 warms up and is not timed.
	start := time.Now()
	var sweepS, configS []float64
	var digests []uint64
	var last sweepOutcome
	for rep := 0; ; rep++ {
		t0 := time.Now()
		last = sweep(data, cases, nil, 0)
		wall := time.Since(t0).Seconds()
		res.Attempted += int64(len(cases))
		res.Failed += last.failed
		digests = append(digests, last.digest)
		if rep > 0 {
			sweepS = append(sweepS, wall)
			configS = append(configS, last.configS...)
		}
		if rep > 0 && time.Since(start).Seconds()+wall > cfg.seconds {
			break
		}
	}
	res.expect("epoch digest identical across sweeps", allEqual(digests), "digests %x", digests)
	res.expect("every configuration simulated", res.Failed == 0, "%d of %d failed", res.Failed, res.Attempted)
	checkSweep(res, last)

	s := summarize(sweepS)
	res.putN("work_per_s", float64(len(cases))/s.P50, s.N, 50)
	// p75 needs 40 samples, which three timed sweeps give; a higher
	// percentile would come and go with the sweep count.
	res.putTimingAt("op_p50_ms", "op_tail_ms", configS, 1e3, 75)
	res.put("goodput", 1-float64(res.Failed)/float64(res.Attempted))
	res.Notes["work_unit"] = "simulated configuration (Measure+Replay pair)"
	res.Notes["op"] = "one Measure+Replay pair"
	res.Notes["sweep_s"] = s.P50
	res.Notes["epoch_digest"] = fmt.Sprintf("%016x", last.digest)
	return nil
}

// runSimulateTraced spans the sweep's Measure and Replay calls, then
// hand-sequences what those layers do inside — the Sample stage over both
// representations, PreSC, ranking, cache load, hotness deltas and packed
// decode — so a change in sweep time can be attributed.
func runSimulateTraced(cfg config, res *result) error {
	rec := newRecorder()
	ln := rec.lane("harness")
	data, err := buildSimData(cfg, ln)
	if err != nil {
		return err
	}
	res.put("gen.generate_s", median(rec.selfOf("gen.generate")))
	res.put("gen.pack_s", median(rec.selfOf("gen.pack")))
	cases := sweepCases(cfg)

	start := time.Now()
	sweep(data, cases, nil, 0) // warm-up
	var digests []uint64
	var last sweepOutcome
	for rep := 0; ; rep++ {
		t0 := time.Now()
		last = sweep(data, cases, ln, rep*len(cases))
		wall := time.Since(t0).Seconds()
		res.Attempted += int64(len(cases))
		res.Failed += last.failed
		digests = append(digests, last.digest)
		// Half the budget for the sweep, half for the layers below it.
		if time.Since(start).Seconds()+wall > cfg.seconds/2 {
			break
		}
	}
	res.expect("epoch digest identical across sweeps", allEqual(digests), "digests %x", digests)
	res.expect("every configuration simulated", res.Failed == 0, "%d of %d failed", res.Failed, res.Attempted)
	checkSweep(res, last)
	shares := rec.shares("config")
	expectSharesSumToOne(res, shares)
	res.putTiming("measure.collect_s", "", rec.selfOf("measure.collect"), 1)
	res.putTiming("core.replay_s", "", rec.selfOf("core.replay"), 1)
	// The low 48 bits survive a float64 and JSON exactly.
	res.put("sim.epoch_digest", float64(last.digest&(1<<48-1)))

	// Sample stage, hand-sequenced: every model's sampler over the first
	// epoch's batches, on CSR and on the packed topology.
	ref := cases[0].cfg
	batch := gnnlab.NewWorkload(gnnlab.ModelGCN).BatchSize
	var batches, inputs, edges int64
	var stats sampling.ScratchStats
	cycle := 0
	for _, m := range simModels {
		alg := gnnlab.NewWorkload(m).NewSampler()
		for _, d := range []*gen.Dataset{data.csr, data.packed} {
			sampling.Prepare(alg, d.Graph)
			pooled := sampling.ClonePooled(alg)
			for pass := 0; pass < 2; pass++ { // pass 0 warms the arena
				before, _ := sampling.ScratchStatsOf(pooled)
				// Planned anew per pass: a cell's RNG stream is consumed by use.
				for _, c := range sampling.PlanEpochs(d.TrainSet, batch, 1, ref.Seed|1) {
					if pass == 0 {
						pooled.Sample(d.Graph, c.Seeds, c.R)
						continue
					}
					cycle++
					var s *sampling.Sample
					ln.time("sampling.sample", cycle, func() { s = pooled.Sample(d.Graph, c.Seeds, c.R) })
					batches++
					inputs += int64(len(s.Input))
					edges += s.SampledEdges
				}
				if pass == 1 {
					after, _ := sampling.ScratchStatsOf(pooled)
					stats.Grows += after.Grows - before.Grows
					stats.RowCacheHits += after.RowCacheHits - before.RowCacheHits
					stats.RowCacheMisses += after.RowCacheMisses - before.RowCacheMisses
				}
			}
		}
	}
	sampleS := rec.selfOf("sampling.sample")
	res.putTiming("sampling.sample_ms", "", sampleS, 1e3)
	res.put("sampling.edges_per_s", float64(edges)/sum(sampleS))
	res.put("sampling.inputs_per_batch", float64(inputs)/float64(batches))
	res.put("sampling.scratch_grows", float64(stats.Grows))
	if n := stats.RowCacheHits + stats.RowCacheMisses; n > 0 {
		res.put("sampling.rowcache_hit_rate", float64(stats.RowCacheHits)/float64(n))
	}
	// Serial Sample-stage seconds of a sweep's sampling content — each
	// (model, representation) epoch above is sampled simEpochs times for
	// each of the three systems — over the sweep's wall. Measure samples
	// on GOMAXPROCS workers, so the share of wall it occupies is this
	// divided by the workers that ran.
	res.put("sampling.busy_share", sum(sampleS)*simEpochs*float64(len(simSystems))/sum(last.configS))

	// Cache layer: PreSC, top-k ranking, table load, hotness deltas.
	d := data.csr
	slots := d.NumVertices() / 10
	gcn := gnnlab.NewWorkload(gnnlab.ModelGCN).NewSampler()
	var hot cache.Hotness
	var ranking []int32
	res.put("cache.presc_ms", 1e3*medianOf(3, func() {
		hot = cache.PreSC(d.Graph, gcn, d.TrainSet, batch, 1, ref.Seed).Hotness
	}))
	res.put("cache.ranktop_ms", 1e3*medianOf(5, func() { ranking = hot.RankTop(slots) }))
	res.put("cache.load_ms", 1e3*medianOf(5, func() {
		_, err = cache.Load(ranking, slots, d.NumVertices(), int64(d.FeatureDim)*4)
	}))
	if err != nil {
		return err
	}
	visits := make([]cache.DeltaVisit, len(ranking))
	for i, v := range ranking {
		visits[i] = cache.DeltaVisit{Vertex: v, Count: 1}
	}
	res.put("cache.applydelta_ns_per_visit", 1e9*medianOf(9, func() { hot.ApplyDelta(visits) })/float64(len(visits)))

	// Graph layer: compressed size (exact) and full-graph decode speed.
	p := data.packed.Graph.(*graph.Packed)
	res.put("graph.packed_bytes_per_edge", float64(p.TopologyBytesUnweighted())/float64(p.NumEdges()))
	var buf []int32
	var decoded int64
	decodeS := medianOf(3, func() {
		decoded = 0
		for v := 0; v < p.NumVertices(); v++ {
			buf = p.AdjInto(graph.VertexID(v), buf)
			decoded += int64(len(buf))
		}
	})
	res.expect("packed decode yields every edge", decoded == p.NumEdges(), "decoded %d of %d", decoded, p.NumEdges())
	res.put("graph.decode_ns_per_edge", 1e9*decodeS/float64(p.NumEdges()))
	return rec.writeTrace(cfg.tracePath)
}
