package main

import (
	"encoding/binary"
	"fmt"
	"hash"
	"hash/fnv"
	"math"
	"runtime"
	"runtime/debug"
	"time"

	"gnnlab/internal/cache"
	"gnnlab/internal/feature"
	"gnnlab/internal/gen"
	"gnnlab/internal/nn"
	"gnnlab/internal/rng"
	"gnnlab/internal/sampling"
	"gnnlab/internal/tensor"
)

// timedSetup runs build sz.setupReps times and reports the median as
// setup_s, keeping the last value. Earlier values are dropped and
// collected outside the timed region, and before timing starts the
// set-up's garbage is returned to the system and the resident-set
// high-water mark reset, so peak_rss_mb measures the workload — the data
// it keeps and what it allocates while running — and not the generator's
// transients, whose size depends on where a collection happens to land.
func timedSetup[T any](cfg config, res *result, build func() (T, error)) (T, error) {
	var v T
	var times []float64
	for i := 0; i < cfg.sz.setupReps; i++ {
		var zero T
		v = zero
		runtime.GC()
		t0 := time.Now()
		var err error
		if v, err = build(); err != nil {
			return v, fmt.Errorf("set-up: %w", err)
		}
		times = append(times, time.Since(t0).Seconds())
	}
	s := summarize(times)
	res.putN("setup_s", s.P50, s.N, 50)
	debug.FreeOSMemory()
	res.Notes["peak_rss_scope"] = resetPeakRSS()
	return v, nil
}

// medianOf times fn n times and returns the median in seconds.
func medianOf(n int, fn func()) float64 {
	times := make([]float64, n)
	for i := range times {
		t0 := time.Now()
		fn()
		times[i] = time.Since(t0).Seconds()
	}
	return median(times)
}

// digest is FNV-1a over float bit patterns: equal sums mean bit-identical
// histories.
type digest struct{ h hash.Hash64 }

func newDigest() digest { return digest{fnv.New64a()} }

func (d digest) float(f float64) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], math.Float64bits(f))
	d.h.Write(b[:])
}

func (d digest) sum() uint64 { return d.h.Sum64() }

func allEqual(xs []uint64) bool {
	for _, x := range xs {
		if x != xs[0] {
			return false
		}
	}
	return true
}

// loadCache fills the store's cache with the slots hottest vertices —
// RankTop, cache.Load, EnableCache, the sequence train.Train's set-up and
// serve.Server's rerank both run — with a span around each call.
func loadCache(ln *lane, cycle int, store *feature.Store, hot cache.Hotness, slots int, d *gen.Dataset) error {
	var ranking []int32
	var table *cache.Table
	var err error
	ln.time("cache.ranktop", cycle, func() { ranking = hot.RankTop(slots) })
	ln.time("cache.load", cycle, func() {
		table, err = cache.Load(ranking, slots, d.NumVertices(), int64(d.FeatureDim)*4)
	})
	if err != nil {
		return err
	}
	ln.time("feature.enable_cache", cycle, func() { err = store.EnableCache(table) })
	return err
}

// chainStats is what both hand-sequenced chains (train's minibatch, serve's
// cycle) count at the layer boundaries, and the per-layer metrics they
// share. The counters that only ever grow are read against a baseline
// taken after the warm-up.
type chainStats struct {
	alg   sampling.Algorithm // the pooled clone whose arena is watched
	store *feature.Store
	ws    []*nn.Workspace

	batches, inputs, sampledEdges         int64
	headInputs                            int64 // inputs of the first headBatches batches
	firstLayerRows                        int
	scratchGrows0, wsGrows0, gatherGrows0 int64
}

func (c *chainStats) grows() (scratch, ws, gather int64) {
	st, _ := sampling.ScratchStatsOf(c.alg)
	for _, w := range c.ws {
		ws += w.Grows()
	}
	_, gather = c.store.GatherStats()
	return st.Grows, ws, gather
}

// headBatches is how many batches after the warm-up
// sampling.inputs_per_batch averages over. The chains run for a time, not
// a count, so only a fixed head of their batches repeats exactly for a
// seed; every full-size run has at least this many.
const headBatches = 16

// resetCounters starts the measured window after the warm-up.
func (c *chainStats) resetCounters() {
	c.batches, c.inputs, c.sampledEdges, c.headInputs = 0, 0, 0, 0
	c.scratchGrows0, c.wsGrows0, c.gatherGrows0 = c.grows()
	c.store.SetStats(0, 0)
}

// observe counts one sampled batch.
func (c *chainStats) observe(s *sampling.Sample) {
	if c.batches < headBatches {
		c.headInputs += int64(len(s.Input))
	}
	c.batches++
	c.inputs += int64(len(s.Input))
	c.sampledEdges += s.SampledEdges
	// The first GNN layer consumes the outermost hop.
	c.firstLayerRows = s.Layers[len(s.Layers)-1].NumDst
}

// put reports the sampling, compact and gather metrics from the spans both
// chains record under the same names, and the dense-kernel probes at the
// chain's own first-layer shape.
func (c *chainStats) put(res *result, rec *recorder, shares map[string]float64, featureDim, hiddenDim int, forwardOnly bool) {
	sampleS, gatherS := rec.selfOf("sampling.sample"), rec.selfOf("feature.gather")
	scratch, ws, gather := c.grows()
	res.putTiming("sampling.sample_ms", "", sampleS, 1e3)
	res.put("sampling.edges_per_s", float64(c.sampledEdges)/sum(sampleS))
	res.put("sampling.busy_share", shares["sampling.sample"])
	res.put("sampling.inputs_per_batch", float64(c.headInputs)/float64(min(c.batches, headBatches)))
	res.put("sampling.scratch_grows", float64(scratch-c.scratchGrows0))
	res.putTiming("nn.compact_ms", "", rec.selfOf("nn.compact"), 1e3)
	res.put("nn.workspace_grows", float64(ws-c.wsGrows0))
	res.putTiming("feature.gather_ms", "", gatherS, 1e3)
	res.put("feature.gather_gbps", float64(c.inputs)*float64(featureDim)*4/sum(gatherS)/1e9)
	res.put("feature.hit_rate", c.store.HitRate())
	res.put("feature.gather_grows", float64(gather-c.gatherGrows0))
	matmulProbes(res, c.firstLayerRows, featureDim, hiddenDim, forwardOnly)
}

// matmulProbes times the three dense kernels at a workload's first-layer
// shape — rows×in @ in×out and the two backward products — and reports
// operation count over time. A CPU sandbox has no roofline to compare to.
func matmulProbes(res *result, rows, in, out int, forwardOnly bool) {
	r := rng.New(99)
	fill := func(m *tensor.Matrix) *tensor.Matrix {
		for i := range m.Data {
			m.Data[i] = float32(r.Float64()) + 0.5 // no zeros: MatMul skips them
		}
		return m
	}
	a, w, g := fill(tensor.New(rows, in)), fill(tensor.New(in, out)), fill(tensor.New(rows, out))
	flops := 2 * float64(rows) * float64(in) * float64(out)
	probe := func(name string, fn func()) {
		var times []float64
		start := time.Now()
		for len(times) < 5 || time.Since(start) < 60*time.Millisecond {
			t0 := time.Now()
			fn()
			times = append(times, time.Since(t0).Seconds())
		}
		s := summarize(times)
		res.putN(name, flops/s.P50/1e9, s.N, 50)
	}
	dst := tensor.New(rows, out)
	probe("tensor.matmul_gflops", func() { tensor.MatMul(dst, a, w) })
	if forwardOnly {
		return
	}
	wg := tensor.New(in, out)
	probe("tensor.matmul_atb_gflops", func() { tensor.MatMulATB(wg, a, g) })
	ga := tensor.New(rows, in)
	probe("tensor.matmul_abt_gflops", func() { tensor.MatMulABT(ga, g, w) })
}
