package measure

import (
	"runtime"
	"sync"
	"testing"
	"time"

	"gnnlab/internal/gen"
	"gnnlab/internal/graph"
	"gnnlab/internal/obs"
)

func storeSpec(name string) Spec {
	return Spec{Dataset: name, Vertices: 10, Edges: 20, Algorithm: "khop", BatchSize: 4, Epochs: 1}
}

func TestStoreSingleFlightAndStats(t *testing.T) {
	s := NewStore()
	calls := 0
	m := &Measurement{}
	for i := 0; i < 3; i++ {
		got := s.GetOrMeasure(storeSpec("PR"), func() *Measurement { calls++; return m })
		if got != m {
			t.Fatalf("request %d returned %p, want %p", i, got, m)
		}
	}
	if calls != 1 {
		t.Errorf("collect ran %d times, want 1", calls)
	}
	hits, misses := s.Stats()
	if hits != 2 || misses != 1 {
		t.Errorf("Stats() = (%d hits, %d misses), want (2, 1)", hits, misses)
	}
	if c := s.CoalescedWaits(); c != 0 {
		t.Errorf("CoalescedWaits() = %d, want 0 for purely serial requests", c)
	}
}

// TestStoreCoalescedWaits forces two goroutines onto the same in-flight
// entry: the first blocks inside collect until the second has booked its
// hit, so the second's hit must be counted as a coalesced wait — and the
// distinction must survive into an observed metrics registry.
func TestStoreCoalescedWaits(t *testing.T) {
	s := NewStore()
	reg := obs.NewRegistry()
	s.Observe(reg)

	firstInside := make(chan struct{})
	release := make(chan struct{})
	m := &Measurement{}

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		s.GetOrMeasure(storeSpec("PA"), func() *Measurement {
			close(firstInside)
			<-release
			return m
		})
	}()

	<-firstInside // the entry now exists and its work is in flight
	wg.Add(1)
	go func() {
		defer wg.Done()
		if got := s.GetOrMeasure(storeSpec("PA"), func() *Measurement {
			t.Error("second requester ran collect; single-flight broken")
			return nil
		}); got != m {
			t.Errorf("coalesced requester got %p, want %p", got, m)
		}
	}()

	// The second requester books its hit (and coalesced wait) before
	// blocking in once.Do, so poll the counter rather than sleeping.
	for s.CoalescedWaits() == 0 {
	}
	close(release)
	wg.Wait()

	hits, misses := s.Stats()
	if hits != 1 || misses != 1 {
		t.Errorf("Stats() = (%d hits, %d misses), want (1, 1)", hits, misses)
	}
	if c := s.CoalescedWaits(); c != 1 {
		t.Errorf("CoalescedWaits() = %d, want 1", c)
	}
	snap := reg.Snapshot()
	for name, want := range map[string]int64{
		"store.hits":            1,
		"store.misses":          1,
		"store.coalesced_waits": 1,
	} {
		if got := snap.Counters[name]; got != want {
			t.Errorf("registry %s = %d, want %d", name, got, want)
		}
	}

	// A hit after the work completed is NOT a coalesced wait.
	s.GetOrMeasure(storeSpec("PA"), func() *Measurement { return nil })
	if c := s.CoalescedWaits(); c != 1 {
		t.Errorf("post-completion hit bumped CoalescedWaits to %d", c)
	}
	if got := reg.Snapshot().Counters["store.hits"]; got != 2 {
		t.Errorf("registry store.hits = %d, want 2", got)
	}
}

func TestStoreObserveSeedsExistingCounts(t *testing.T) {
	s := NewStore()
	s.GetOrRank(RankKey{Dataset: "PR", Policy: "presc"}, func() Ranking { return Ranking{} })
	s.GetOrRank(RankKey{Dataset: "PR", Policy: "presc"}, func() Ranking { return Ranking{} })
	reg := obs.NewRegistry()
	s.Observe(reg)
	snap := reg.Snapshot()
	if snap.Counters["store.misses"] != 1 || snap.Counters["store.hits"] != 1 {
		t.Errorf("seeded counters = %v, want hits 1 misses 1", snap.Counters)
	}
}

func storeDatasetConfig() gen.Config {
	return gen.Config{
		Name: "tiny", Kind: gen.KindWeb,
		NumVertices: 2000, NumEdges: 30000,
		FeatureDim: 16, TrainFraction: 0.05,
		Weighted: true, Seed: 77,
	}
}

// Eight goroutines asking for one dataset at once generate it once: one
// miss, seven hits, one *gen.Dataset.
func TestStoreDatasetSingleFlight(t *testing.T) {
	s := NewStore()
	cfg := storeDatasetConfig()
	const n = 8
	got := make([]*gen.Dataset, n)
	start := make(chan struct{})
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			d, err := s.Dataset(cfg, false)
			if err != nil {
				t.Error(err)
			}
			got[i] = d
		}()
	}
	close(start)
	wg.Wait()
	for i, d := range got {
		if d == nil || d != got[0] {
			t.Fatalf("request %d returned %p, want %p", i, d, got[0])
		}
	}
	if hits, misses := s.Stats(); hits != n-1 || misses != 1 {
		t.Errorf("Stats() = (%d hits, %d misses), want (%d, 1)", hits, misses, n-1)
	}
}

// A packed request packs once, from the store's own CSR entry: the two
// share their sidecars, the CSR entry keeps its CSR, and a second packed
// request returns the same *graph.Packed.
func TestStoreDatasetPackedOnce(t *testing.T) {
	s := NewStore()
	cfg := storeDatasetConfig()
	p1, err := s.Dataset(cfg, true)
	if err != nil {
		t.Fatal(err)
	}
	p2, err := s.Dataset(cfg, true)
	if err != nil {
		t.Fatal(err)
	}
	pg, ok := p1.Graph.(*graph.Packed)
	if !ok {
		t.Fatalf("packed request returned a %T", p1.Graph)
	}
	if p2.Graph != pg {
		t.Error("a second packed request packed again")
	}
	c, err := s.Dataset(cfg, false)
	if err != nil {
		t.Fatal(err)
	}
	if c.CSR() == nil {
		t.Errorf("the CSR entry holds a %T", c.Graph)
	}
	if &c.TrainSet[0] != &p1.TrainSet[0] {
		t.Error("the packed entry was not packed from the store's CSR entry")
	}
	// Two packed requests, the CSR request the first one made, and the
	// direct CSR request.
	if hits, misses := s.Stats(); hits != 2 || misses != 2 {
		t.Errorf("Stats() = (%d hits, %d misses), want (2, 2)", hits, misses)
	}
}

// A config that fails to generate fails every request, CSR or packed,
// from one attempt: the entry keeps the error.
func TestStoreDatasetRemembersError(t *testing.T) {
	s := NewStore()
	cfg := storeDatasetConfig()
	cfg.NumVertices = 0
	for i := 0; i < 3; i++ {
		if d, err := s.Dataset(cfg, i == 2); err == nil {
			t.Fatalf("request %d returned %v and no error", i, d)
		}
	}
	if hits, misses := s.Stats(); hits != 2 || misses != 2 {
		t.Errorf("Stats() = (%d hits, %d misses), want (2, 2)", hits, misses)
	}
}

// The store is a dataset's only owner: once the caller drops the store
// and the datasets it handed out, both its entries are collected.
func TestStoreDatasetReleasedWithStore(t *testing.T) {
	collected := make(chan struct{}, 2)
	func() {
		s := NewStore()
		for _, packed := range []bool{false, true} {
			d, err := s.Dataset(storeDatasetConfig(), packed)
			if err != nil {
				t.Fatal(err)
			}
			runtime.SetFinalizer(d, func(*gen.Dataset) { collected <- struct{}{} })
		}
	}()
	deadline := time.After(time.Second)
	for seen := 0; seen < 2; {
		runtime.GC()
		select {
		case <-collected:
			seen++
		case <-time.After(20 * time.Millisecond):
		case <-deadline:
			t.Fatal("datasets loaded through a dropped store were not collected")
		}
	}
}
