package feature

import (
	"testing"
	"testing/quick"

	"gnnlab/internal/cache"
	"gnnlab/internal/sampling"
	"gnnlab/internal/tensor"
)

func makeHost(n, dim int) []float32 {
	host := make([]float32, n*dim)
	for v := 0; v < n; v++ {
		for j := 0; j < dim; j++ {
			host[v*dim+j] = float32(v*1000 + j)
		}
	}
	return host
}

func sampleOf(inputs ...int32) *sampling.Sample {
	return &sampling.Sample{Seeds: inputs[:1], Input: inputs}
}

// gather runs GatherInto on a new matrix: a new destination per call.
func gather(s *Store, smp *sampling.Sample) (*tensor.Matrix, int, int) {
	m := &tensor.Matrix{}
	hits, misses := s.GatherInto(m, smp)
	return m, hits, misses
}

func TestStoreValidation(t *testing.T) {
	if _, err := NewStore(make([]float32, 10), 0); err == nil {
		t.Error("zero dim accepted")
	}
	if _, err := NewStore(make([]float32, 10), 3); err == nil {
		t.Error("non-multiple length accepted")
	}
	s, err := NewStore(makeHost(5, 4), 4)
	if err != nil {
		t.Fatal(err)
	}
	if s.NumVertices() != 5 || s.Dim() != 4 {
		t.Errorf("store shape %d×%d", s.NumVertices(), s.Dim())
	}
}

func TestGatherWithoutCache(t *testing.T) {
	s, _ := NewStore(makeHost(10, 3), 3)
	m, hits, misses := gather(s, sampleOf(7, 2, 9))
	if hits != 0 || misses != 3 {
		t.Errorf("uncached gather: %d/%d", hits, misses)
	}
	if m.At(0, 0) != 7000 || m.At(1, 2) != 2002 || m.At(2, 1) != 9001 {
		t.Errorf("gathered values wrong: %v", m.Data)
	}
}

func TestGatherSplitTiers(t *testing.T) {
	const n, dim = 20, 4
	s, _ := NewStore(makeHost(n, dim), dim)
	// Cache vertices 3 and 7.
	table, err := cache.Load([]int32{3, 7}, 2, n, dim*4)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.EnableCache(table); err != nil {
		t.Fatal(err)
	}
	if !s.CacheEnabled() {
		t.Fatal("cache not enabled")
	}
	m, hits, misses := gather(s, sampleOf(3, 5, 7, 1))
	if hits != 2 || misses != 2 {
		t.Fatalf("split gather: %d/%d, want 2/2", hits, misses)
	}
	// Values must be identical regardless of which tier served them.
	for local, v := range []int32{3, 5, 7, 1} {
		for j := 0; j < dim; j++ {
			if m.At(local, j) != float32(int(v)*1000+j) {
				t.Fatalf("row %d (vertex %d) corrupted", local, v)
			}
		}
	}
	if s.HitRate() != 0.5 {
		t.Errorf("hit rate %v", s.HitRate())
	}
}

func TestEnableCacheRejectsMismatchedRowSize(t *testing.T) {
	s, _ := NewStore(makeHost(5, 4), 4)
	table, _ := cache.Load([]int32{0}, 1, 5, 8) // 2-lane rows, store has 4
	if err := s.EnableCache(table); err == nil {
		t.Error("mismatched row size accepted")
	}
}

// TestGatherEquivalenceProperty: for any cached subset, the gathered
// matrix equals the uncached gather bit for bit.
func TestGatherEquivalenceProperty(t *testing.T) {
	const n, dim = 50, 3
	host := makeHost(n, dim)
	if err := quick.Check(func(slotsRaw uint8, picks [6]uint8) bool {
		plain, _ := NewStore(host, dim)
		cached, _ := NewStore(host, dim)
		slots := int(slotsRaw % n)
		ranking := make([]int32, n)
		for i := range ranking {
			ranking[i] = int32((i*7 + 3) % n) // fixed permutation
		}
		table, err := cache.Load(ranking, slots, n, dim*4)
		if err != nil {
			return false
		}
		if err := cached.EnableCache(table); err != nil {
			return false
		}
		inputs := make([]int32, len(picks))
		seen := map[int32]bool{}
		k := 0
		for _, p := range picks {
			v := int32(p) % n
			if seen[v] {
				continue
			}
			seen[v] = true
			inputs[k] = v
			k++
		}
		if k == 0 {
			return true
		}
		smp := sampleOf(inputs[:k]...)
		a, _, _ := gather(plain, smp)
		b, hits, misses := gather(cached, smp)
		if hits+misses != k {
			return false
		}
		for i := range a.Data {
			if a.Data[i] != b.Data[i] {
				return false
			}
		}
		return true
	}, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// TestGatherIntoReusesAndMatches: a reused destination produces the same
// matrix as a gather into a new one (shrinking batches included), never
// grows its backing array once warm, and allocates nothing in steady
// state.
func TestGatherIntoReusesAndMatches(t *testing.T) {
	const n, dim = 30, 3
	s, _ := NewStore(makeHost(n, dim), dim)
	table, err := cache.Load([]int32{4, 8, 15}, 3, n, dim*4)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.EnableCache(table); err != nil {
		t.Fatal(err)
	}
	batches := [][]int32{{4, 1, 8}, {15, 2, 3, 4, 5}, {9}, {8, 4}}
	var dst tensor.Matrix
	for _, in := range batches {
		smp := sampleOf(in...)
		fresh, fh, fm := gather(s, smp)
		ph, pm := s.GatherInto(&dst, smp)
		if fh != ph || fm != pm {
			t.Fatalf("batch %v: fresh %d/%d pooled %d/%d", in, fh, fm, ph, pm)
		}
		if dst.Rows != fresh.Rows || dst.Cols != fresh.Cols {
			t.Fatalf("batch %v: shape %dx%d, want %dx%d", in, dst.Rows, dst.Cols, fresh.Rows, fresh.Cols)
		}
		for i := range fresh.Data {
			if dst.Data[i] != fresh.Data[i] {
				t.Fatalf("batch %v: pooled gather differs at %d", in, i)
			}
		}
	}
	reuses, grows := s.GatherStats()
	// 4 new-destination gathers grow; dst grows on batches 1-2 and reuses afterwards.
	if grows != 4+2 || reuses != 2 {
		t.Errorf("gather stats: %d reuses, %d grows", reuses, grows)
	}
	smp := sampleOf(4, 9, 8, 1)
	if allocs := testing.AllocsPerRun(20, func() { s.GatherInto(&dst, smp) }); allocs != 0 {
		t.Errorf("steady-state GatherInto allocates %v/op", allocs)
	}
}

// TestEnableCacheVisitsResidentsOnly: the cached tier built from the
// resident list matches what an exhaustive |V| probe would build.
func TestEnableCacheVisitsResidentsOnly(t *testing.T) {
	const n, dim = 40, 2
	host := makeHost(n, dim)
	ranking := make([]int32, n)
	for i := range ranking {
		ranking[i] = int32((i*11 + 5) % n)
	}
	table, err := cache.Load(ranking, 7, n, dim*4)
	if err != nil {
		t.Fatal(err)
	}
	s, _ := NewStore(host, dim)
	if err := s.EnableCache(table); err != nil {
		t.Fatal(err)
	}
	for v := int32(0); int(v) < n; v++ {
		slot, ok := table.Slot(v)
		if !ok {
			continue
		}
		for j := 0; j < dim; j++ {
			if s.cached[int(slot)*dim+j] != host[int(v)*dim+j] {
				t.Fatalf("vertex %d slot %d lane %d not materialized", v, slot, j)
			}
		}
	}
	// A table sized for more vertices than the store holds is rejected.
	big, err := cache.Load([]int32{int32(n + 2)}, 1, n+5, dim*4)
	if err != nil {
		t.Fatal(err)
	}
	s2, _ := NewStore(host, dim)
	if err := s2.EnableCache(big); err == nil {
		t.Error("out-of-range resident accepted")
	}
}

func TestStatsAccumulate(t *testing.T) {
	s, _ := NewStore(makeHost(10, 2), 2)
	gather(s, sampleOf(1, 2))
	gather(s, sampleOf(3))
	h, m := s.Stats()
	if h != 0 || m != 3 {
		t.Errorf("stats %d/%d", h, m)
	}
	if (&Store{}).HitRate() != 0 {
		t.Error("empty hit rate not 0")
	}
}
