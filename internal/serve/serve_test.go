package serve

import (
	"sort"
	"testing"

	"gnnlab/internal/gen"
	"gnnlab/internal/nn"
	"gnnlab/internal/obs"
	"gnnlab/internal/rng"
	"gnnlab/internal/sampling"
	"gnnlab/internal/tensor"
	"gnnlab/internal/workload"
)

// testDataset loads the small labelled community preset with real
// features, shared across the suite (read-only).
var testData *gen.Dataset

func dataset(t testing.TB) *gen.Dataset {
	if testData == nil {
		cfg, err := gen.PresetConfig(gen.PresetConv)
		if err != nil {
			t.Fatal(err)
		}
		cfg.MaterializeFeatures = true
		d, err := gen.Generate(cfg)
		if err != nil {
			t.Fatal(err)
		}
		testData = d
	}
	return testData
}

func testSpec() workload.Spec {
	return workload.Spec{Kind: workload.GraphSAGE, HiddenDim: 16, BatchSize: 8}
}

// fakeClock is an injectable monotonic clock.
type fakeClock struct{ t float64 }

func (c *fakeClock) now() float64 { return c.t }

func newServer(t testing.TB, opt Options) *Server {
	t.Helper()
	if opt.Spec == (workload.Spec{}) {
		opt.Spec = testSpec()
	}
	s, err := New(dataset(t), opt)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestServeBasic(t *testing.T) {
	clk := &fakeClock{}
	s := newServer(t, Options{Seed: 3, Now: clk.now})
	d := dataset(t)
	var tickets []*Ticket
	for i := 0; i < 5; i++ {
		tk, out := s.Submit(int32(i * 7 % d.NumVertices()))
		if out != Admitted {
			t.Fatalf("submit %d: %v", i, out)
		}
		tickets = append(tickets, tk)
	}
	n, _, err := s.Step()
	if err != nil {
		t.Fatal(err)
	}
	if n != 5 {
		t.Fatalf("Step completed %d, want 5", n)
	}
	for i, tk := range tickets {
		if !tk.Done || tk.Expired {
			t.Fatalf("ticket %d not served: %+v", i, tk)
		}
		if tk.Class < 0 || int(tk.Class) >= d.NumClasses {
			t.Errorf("ticket %d class %d outside [0,%d)", i, tk.Class, d.NumClasses)
		}
		s.Release(tk)
	}
}

// TestServeDeterministic pins the reproducibility contract: identical
// submit/step schedules against identical options yield identical
// predictions.
func TestServeDeterministic(t *testing.T) {
	run := func() []int32 {
		clk := &fakeClock{}
		s := newServer(t, Options{Seed: 9, CacheRatio: 0.05, RerankEvery: 2, Now: clk.now})
		var classes []int32
		v := int32(1)
		for step := 0; step < 8; step++ {
			var batch []*Ticket
			for i := 0; i < 6; i++ {
				v = (v*31 + 17) % int32(dataset(t).NumVertices())
				tk, out := s.Submit(v)
				if out != Admitted {
					t.Fatalf("step %d submit %d: %v", step, i, out)
				}
				batch = append(batch, tk)
			}
			clk.t += 0.001
			if _, _, err := s.Step(); err != nil {
				t.Fatal(err)
			}
			for _, tk := range batch {
				classes = append(classes, tk.Class)
				s.Release(tk)
			}
		}
		return classes
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("class %d differs across identical runs: %d != %d", i, a[i], b[i])
		}
	}
}

// TestServeMatchesDirectPath is the differential test: the microbatched
// server, running its minibatch.Executor, must produce exactly the
// classes a hand-run of the fresh layer-level references
// (sample→compact→gather→classify) produces on the same seeds.
func TestServeMatchesDirectPath(t *testing.T) {
	d := dataset(t)
	spec := testSpec()
	model := nn.NewModel(spec.Kind, spec.NumLayers(), d.FeatureDim, spec.HiddenDim, d.NumClasses, 77)
	clk := &fakeClock{}
	s := newServer(t, Options{Spec: spec, Model: model, Seed: 5, Now: clk.now})

	seeds := []int32{3, 99, 505, 7000, 11999}
	var tickets []*Ticket
	for _, v := range seeds {
		tk, out := s.Submit(v)
		if out != Admitted {
			t.Fatalf("submit %d: %v", v, out)
		}
		tickets = append(tickets, tk)
	}
	if _, _, err := s.Step(); err != nil {
		t.Fatal(err)
	}

	// Same prepared algorithm, same seed-keyed RNG stream, same model.
	alg := spec.NewSampler()
	sampling.Prepare(alg, d.Graph)
	smp := alg.Sample(d.Graph, seeds, rng.New(uint64(5)^0x5E12F))
	var g nn.Compact
	if err := nn.NewCompactInto(&g, smp); err != nil {
		t.Fatal(err)
	}
	var feats tensor.Matrix
	s.store.GatherInto(&feats, smp)
	want, err := model.ClassifyWS(nn.NewWorkspace(), &g, &feats, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i, tk := range tickets {
		if tk.Class != want[i] {
			t.Errorf("seed %d: server class %d, direct path %d", seeds[i], tk.Class, want[i])
		}
	}
}

// TestServeSeedDedup: concurrent requests for the same vertex share one
// seed slot and all receive the same prediction.
func TestServeSeedDedup(t *testing.T) {
	clk := &fakeClock{}
	rec := obs.NewRecorder()
	s := newServer(t, Options{Seed: 4, Obs: rec, Now: clk.now})
	var tickets []*Ticket
	for i := 0; i < 3; i++ {
		tk, out := s.Submit(42)
		if out != Admitted {
			t.Fatalf("submit %d: %v", i, out)
		}
		tickets = append(tickets, tk)
	}
	tkOther, _ := s.Submit(4242)
	if _, _, err := s.Step(); err != nil {
		t.Fatal(err)
	}
	for i := 1; i < 3; i++ {
		if tickets[i].Class != tickets[0].Class {
			t.Errorf("duplicate seed got class %d != %d", tickets[i].Class, tickets[0].Class)
		}
	}
	if !tkOther.Done {
		t.Error("distinct seed in the same batch not served")
	}
	snap := rec.Registry().Snapshot()
	_ = snap
	if got := rec.Registry().Counter("serve.served").Value(); got != 4 {
		t.Errorf("serve.served = %d, want 4 (3 deduped + 1 distinct)", got)
	}
}

// --- Deadline-expiry admission-control suite ---

func TestAdmissionShedsOnFullQueue(t *testing.T) {
	clk := &fakeClock{}
	s := newServer(t, Options{Seed: 1, BatchSize: 4, QueueCap: 4, Deadline: 1000, Now: clk.now})
	for i := 0; i < 4; i++ {
		if _, out := s.Submit(int32(i)); out != Admitted {
			t.Fatalf("submit %d: %v", i, out)
		}
	}
	if _, out := s.Submit(99); out != ShedQueueFull {
		t.Fatalf("5th submit on a 4-cap queue: %v, want ShedQueueFull", out)
	}
	if got := s.QueueStats().MaxDepth; got != 4 {
		t.Errorf("queue MaxDepth = %d, want 4", got)
	}
}

func TestAdmissionShedsOnProjectedWait(t *testing.T) {
	clk := &fakeClock{}
	s := newServer(t, Options{Seed: 1, BatchSize: 2, QueueCap: 64, Deadline: 0.010, Now: clk.now})
	if _, out := s.Submit(4); out != Admitted {
		t.Fatalf("first submit: %v", out)
	}
	// Teach the EWMA that a batch takes 1s — far past the 10ms deadline.
	s.estBatch.store(1.0)
	if _, out := s.Submit(5); out != ShedDeadline {
		t.Fatalf("submit behind a queued request with projected wait 1s > deadline 10ms: %v, want ShedDeadline", out)
	}
	// A relaxed estimate admits again.
	s.estBatch.store(1e-4)
	if _, out := s.Submit(5); out != Admitted {
		t.Fatalf("submit with projected wait 0.1ms: %v, want Admitted", out)
	}
}

// TestAdmissionRecoversFromSlowStep pins the livelock fix: one slow Step
// lifts the service estimate past the deadline, yet a request arriving at
// an empty queue is admitted — only running a batch can correct the
// estimate — and the next fast Step lowers it.
func TestAdmissionRecoversFromSlowStep(t *testing.T) {
	const deadline = 0.010
	// Each cycle reads the clock three times — Submit, Step entry, Step
	// after the forward pass — and only the last advances it, so a batch
	// costs stepCost and no request waits in queue.
	var clock, stepCost float64
	reads := 0
	now := func() float64 {
		if reads++; reads%3 == 0 {
			clock += stepCost
		}
		return clock
	}
	s := newServer(t, Options{Seed: 1, Deadline: deadline, Now: now})
	cycle := func() {
		t.Helper()
		tk, out := s.Submit(7)
		if out != Admitted {
			t.Fatalf("submit on an empty queue with estimate %v: %v, want Admitted", s.estBatch.load(), out)
		}
		if _, _, err := s.Step(); err != nil {
			t.Fatal(err)
		}
		if !tk.Done || tk.Expired {
			t.Fatalf("admitted request not served: %+v", tk)
		}
		s.Release(tk)
	}
	stepCost = 10 * deadline
	cycle()
	slow := s.estBatch.load()
	if slow <= deadline {
		t.Fatalf("estimate %v after a %v Step, want above the %v deadline", slow, stepCost, deadline)
	}
	stepCost = deadline / 10
	cycle()
	if est := s.estBatch.load(); est >= slow {
		t.Errorf("estimate %v did not decay from %v after a fast Step", est, slow)
	}
}

func TestDeadlineExpiryAtDispatch(t *testing.T) {
	clk := &fakeClock{}
	rec := obs.NewRecorder()
	s := newServer(t, Options{Seed: 1, Deadline: 0.05, Obs: rec, Now: clk.now})
	tk, out := s.Submit(7)
	if out != Admitted {
		t.Fatal(out)
	}
	late, _ := s.Submit(8)
	clk.t = 0.04 // before the deadline: everything serves
	if _, _, err := s.Step(); err != nil {
		t.Fatal(err)
	}
	if !tk.Done || tk.Expired || !late.Done || late.Expired {
		t.Fatalf("on-time requests mishandled: %+v %+v", tk, late)
	}
	s.Release(tk)
	s.Release(late)

	tk2, _ := s.Submit(9)
	clk.t += 0.051 // past the new request's deadline
	n, _, err := s.Step()
	if err != nil {
		t.Fatal(err)
	}
	if n != 1 || !tk2.Done || !tk2.Expired {
		t.Fatalf("expired request not dropped at dispatch: n=%d %+v", n, tk2)
	}
	if got := rec.Registry().Counter("serve.expired").Value(); got != 1 {
		t.Errorf("serve.expired = %d, want 1", got)
	}
	s.Release(tk2)
}

func TestEWMATracksBatchTime(t *testing.T) {
	// A clock that advances 0.1s per reading: Step reads it at entry and
	// after the forward pass, so every batch appears to take 0.1s.
	tick := 0.0
	now := func() float64 { tick += 0.1; return tick }
	s := newServer(t, Options{Seed: 1, Deadline: 1000, Now: now})
	before := s.estBatch.load()
	for i := 0; i < 6; i++ {
		if _, out := s.Submit(11); out != Admitted {
			t.Fatal(out)
		}
		if _, _, err := s.Step(); err != nil {
			t.Fatal(err)
		}
	}
	after := s.estBatch.load()
	if after <= before || after < 0.05 {
		t.Errorf("EWMA %v -> %v after 0.1s batches, want ≈0.1", before, after)
	}
}

func TestServeClosed(t *testing.T) {
	clk := &fakeClock{}
	s := newServer(t, Options{Seed: 1, Now: clk.now})
	tk, out := s.Submit(3)
	if out != Admitted {
		t.Fatal(out)
	}
	s.Close()
	if _, out := s.Submit(4); out != Closed {
		t.Fatalf("submit after Close: %v, want Closed", out)
	}
	if st := s.QueueStats(); st.Dropped != 1 {
		t.Errorf("Dropped = %d, want 1 (the refused post-close submit)", st.Dropped)
	}
	// Queued-before-close requests still serve.
	if _, _, err := s.Step(); err != nil {
		t.Fatal(err)
	}
	if !tk.Done || tk.Expired {
		t.Errorf("pre-close request lost: %+v", tk)
	}
}

func TestServeInvalidVertex(t *testing.T) {
	s := newServer(t, Options{Seed: 1, Now: (&fakeClock{}).now})
	if _, out := s.Submit(-1); out != Invalid {
		t.Errorf("Submit(-1) = %v", out)
	}
	if _, out := s.Submit(int32(dataset(t).NumVertices())); out != Invalid {
		t.Errorf("Submit(N) = %v", out)
	}
}

// TestRequestDrivenCacheAdapts pins the tentpole's cache policy: under
// skewed traffic to *low-degree* vertices (which the degree bootstrap
// refuses to cache), the request-driven rerank must adapt the cache to
// the observed working set and beat the static degree policy's hit rate.
func TestRequestDrivenCacheAdapts(t *testing.T) {
	d := dataset(t)
	// The 32 lowest-degree vertices: the degree prior caches them last.
	type dv struct {
		v   int32
		deg int64
	}
	cold := make([]dv, d.NumVertices())
	for v := range cold {
		cold[v] = dv{int32(v), d.Graph.Degree(int32(v))}
	}
	sort.Slice(cold, func(a, b int) bool {
		if cold[a].deg != cold[b].deg {
			return cold[a].deg < cold[b].deg
		}
		return cold[a].v < cold[b].v
	})
	hotSet := make([]int32, 32)
	for i := range hotSet {
		hotSet[i] = cold[i].v
	}

	run := func(rerankEvery int) float64 {
		clk := &fakeClock{}
		s := newServer(t, Options{Seed: 8, CacheRatio: 0.02, RerankEvery: rerankEvery, Now: clk.now})
		for round := 0; round < 40; round++ {
			for _, v := range hotSet[:8] {
				if _, out := s.Submit(v); out != Admitted {
					t.Fatal(out)
				}
			}
			if _, _, err := s.Step(); err != nil {
				t.Fatal(err)
			}
		}
		return s.CacheHitRate()
	}
	adaptive := run(4)
	static := run(1 << 30) // never reranks: stuck with the degree prior
	if adaptive <= static {
		t.Errorf("request-driven cache hit rate %.3f did not beat static degree prior %.3f", adaptive, static)
	}
}

// TestServeSteadyStateZeroAlloc pins the acceptance criterion: the
// microbatched Submit→Step→Release cycle reuses the pooled minibatch
// machinery and allocates nothing once warm (away from rerank
// boundaries, which rebuild the cache table by design).
func TestServeSteadyStateZeroAlloc(t *testing.T) {
	clk := &fakeClock{}
	s := newServer(t, Options{Seed: 2, CacheRatio: 0.05, RerankEvery: 1 << 30, Now: clk.now})
	d := dataset(t)
	verts := []int32{5, 105, 1005, 2005, 4005, 8005, int32(d.NumVertices() - 1), 11}
	tickets := make([]*Ticket, 0, len(verts))
	cycle := func() {
		tickets = tickets[:0]
		for _, v := range verts {
			tk, out := s.Submit(v)
			if out != Admitted {
				t.Fatal(out)
			}
			tickets = append(tickets, tk)
		}
		if _, _, err := s.Step(); err != nil {
			t.Fatal(err)
		}
		for _, tk := range tickets {
			s.Release(tk)
		}
	}
	for i := 0; i < 20; i++ { // warm every pooled buffer
		cycle()
	}
	if allocs := testing.AllocsPerRun(50, cycle); allocs > 0 {
		t.Errorf("steady-state serving allocates %.1f objects per batch, want 0", allocs)
	}
}
