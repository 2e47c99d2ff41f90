package nn

import (
	"math"
	"runtime"
	"testing"

	"gnnlab/internal/cache"
	"gnnlab/internal/feature"
	"gnnlab/internal/par"
	"gnnlab/internal/rng"
	"gnnlab/internal/sampling"
	"gnnlab/internal/tensor"
)

// mallocsPerRun is testing.AllocsPerRun without its switch to
// GOMAXPROCS 1, under which nothing fans out: heap allocations of the
// whole process, pool helpers included, per call of fn. It warms up with
// runs calls and returns the fewest over three windows of runs calls, so
// that a one-off allocation of the runtime's own (a new thread's M, a
// scavenger timer) does not read as one per call.
func mallocsPerRun(runs int, fn func()) float64 {
	for i := 0; i < runs; i++ {
		fn()
	}
	best := math.Inf(1)
	for w := 0; w < 3; w++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < runs; i++ {
			fn()
		}
		runtime.ReadMemStats(&after)
		best = min(best, float64(after.Mallocs-before.Mallocs)/float64(runs))
	}
	return best
}

// TestFanOutSteadyStateZeroAllocs pins the fan-out path itself at zero
// allocations at GOMAXPROCS 2: a product, a Conv aggregation and a
// GatherInto, each large enough to be posted to the row pool, and each
// bit-identical to its inline run at GOMAXPROCS 1 — the fanned run on a
// workspace that another sample, with no isolated target, left dirty, the
// inline one on a new one.
func TestFanOutSteadyStateZeroAllocs(t *testing.T) {
	const inputs, numOut, deg, dim = 4096, 512, 8, 64
	r := rng.New(43)

	// Two-hop-shaped Compacts: numOut targets with deg neighbours each
	// among all inputs, except, in g, every seventh target, which has none.
	compact := func(isolate int) *Compact {
		c := &Compact{NumVertices: inputs, NumLevels: 1, Needed: []int{inputs, numOut}}
		c.AdjStart = make([]int32, inputs+1)
		for v := 1; v <= inputs; v++ {
			c.AdjStart[v] = c.AdjStart[v-1]
			if v <= numOut && v%isolate != 0 {
				c.AdjStart[v] += deg
			}
		}
		for range c.AdjStart[inputs] {
			c.AdjNbr = append(c.AdjNbr, int32(r.Intn(inputs)))
		}
		return c
	}
	g, full := compact(7), compact(inputs+1)
	host := make([]float32, 2*inputs*dim)
	for i := range host {
		host[i] = float32(r.Float64()*2 - 1)
	}
	store, err := feature.NewStore(host, dim)
	if err != nil {
		t.Fatal(err)
	}
	resident := make([]int32, 0, inputs/2)
	for v := int32(0); v < 2*inputs; v += 4 {
		resident = append(resident, v)
	}
	table, err := cache.Load(resident, len(resident), 2*inputs, dim*4)
	if err != nil {
		t.Fatal(err)
	}
	if err := store.EnableCache(table); err != nil {
		t.Fatal(err)
	}
	smp, dirty := &sampling.Sample{Input: make([]int32, inputs)}, &sampling.Sample{Input: make([]int32, inputs)}
	for i := range smp.Input {
		smp.Input[i], dirty.Input[i] = int32(r.Intn(2*inputs)), int32(r.Intn(2*inputs))
	}
	conv := NewConv(AggSAGE, dim, dim, true, r)
	ws := NewWorkspace()
	feats, prod := new(tensor.Matrix), tensor.New(numOut, dim)
	var out *tensor.Matrix
	var hits, misses int
	sample := func(s *sampling.Sample, g *Compact) {
		ws.reset()
		hits, misses = store.GatherInto(feats, s)
		out, _ = conv.ForwardLayer(ws, g, feats, numOut)
		tensor.MatMul(prod, out, conv.WNbr.Value)
	}
	run := func() { sample(smp, g) }

	prev := runtime.GOMAXPROCS(1)
	defer runtime.GOMAXPROCS(prev)
	run()
	wantFeats, wantOut, wantProd := feats.Clone(), out.Clone(), prod.Clone()
	wantHits, wantMisses := hits, misses

	runtime.GOMAXPROCS(2)
	sample(dirty, full)
	before := par.Posts()
	run()
	// Gather, aggregation, the layer's two MatMuls and the product above.
	if posted := par.Posts() - before; posted != 5 {
		t.Fatalf("%d of 5 stages were posted to the pool", posted)
	}
	if hits != wantHits || misses != wantMisses {
		t.Errorf("fanned gather counted %d hits %d misses, inline %d %d", hits, misses, wantHits, wantMisses)
	}
	for _, m := range []struct {
		name      string
		got, want *tensor.Matrix
	}{{"gather", feats, wantFeats}, {"conv", out, wantOut}, {"product", prod, wantProd}} {
		for i := range m.want.Data {
			if math.Float32bits(m.got.Data[i]) != math.Float32bits(m.want.Data[i]) {
				t.Fatalf("fanned %s differs from inline at %d: %v vs %v", m.name, i, m.got.Data[i], m.want.Data[i])
			}
		}
	}
	if allocs := mallocsPerRun(20, run); allocs != 0 {
		t.Errorf("fanned-out gather+aggregation+product allocates %v/op", allocs)
	}
}
