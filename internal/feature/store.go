// Package feature implements the feature store the Extract stage reads:
// the full per-vertex feature table in host memory plus an optional
// GPU-resident cached tier holding the rows the caching policy selected
// (§6.1's load_cache). In the simulated systems only the byte accounting
// matters; in the live runtime (internal/train) the store performs the
// actual split gather — cache hits from the cached tier, misses from
// host — so the §6 machinery is exercised end to end.
package feature

import (
	"fmt"
	"sync/atomic"

	"gnnlab/internal/cache"
	"gnnlab/internal/sampling"
	"gnnlab/internal/tensor"
)

// Store is a two-tier feature store. It is safe for concurrent GatherInto
// calls (into distinct destinations) once built.
type Store struct {
	dim  int
	host []float32
	// table maps vertices to cached slots; nil when no cache is enabled.
	table *cache.Table
	// cached holds the selected rows in slot order.
	cached []float32

	hits, misses atomic.Int64
	// gatherReuses/gatherGrows count GatherInto calls that reused the
	// destination's backing array vs. ones that had to grow it — the
	// Extract-stage analogue of sampling's ScratchStats, surfaced as the
	// feature.gather_reuse / feature.gather_grow obs counters by train.
	gatherReuses, gatherGrows atomic.Int64
}

// NewStore wraps the host feature table (row-major, n×dim).
func NewStore(host []float32, dim int) (*Store, error) {
	if dim <= 0 {
		return nil, fmt.Errorf("feature: non-positive dim %d", dim)
	}
	if len(host)%dim != 0 {
		return nil, fmt.Errorf("feature: host length %d not a multiple of dim %d", len(host), dim)
	}
	return &Store{dim: dim, host: host}, nil
}

// NumVertices returns the number of feature rows.
func (s *Store) NumVertices() int { return len(s.host) / s.dim }

// Dim returns the feature width.
func (s *Store) Dim() int { return s.dim }

// EnableCache materializes the cached tier for the vertices the table
// selected — the live analogue of loading the feature cache into GPU
// memory (Table 6, P2). The table must match this store's vertex count.
func (s *Store) EnableCache(table *cache.Table) error {
	if table.VertexFeatureBytes() != int64(s.dim)*4 {
		return fmt.Errorf("feature: table row size %d B != store row size %d B",
			table.VertexFeatureBytes(), s.dim*4)
	}
	if n := int64(s.NumVertices()); n > 0 {
		// Residents are validated by cache.Load to lie in [0, numVertices);
		// only the vertex-count agreement needs checking here.
		for _, v := range table.Cached() {
			if int64(v) >= n {
				return fmt.Errorf("feature: cached vertex %d outside store (n=%d)", v, n)
			}
		}
	}
	// Visit exactly the residents (slot order) instead of probing all |V|:
	// O(slots) work, which matters when EnableCache runs on every policy
	// switch of a long experiment sweep.
	cached := make([]float32, table.NumSlots()*s.dim)
	for slot, v := range table.Cached() {
		copy(cached[slot*s.dim:(slot+1)*s.dim], s.hostRow(v))
	}
	s.table = table
	s.cached = cached
	return nil
}

// CacheEnabled reports whether a cached tier is active.
func (s *Store) CacheEnabled() bool { return s.table != nil }

func (s *Store) hostRow(v int32) []float32 {
	return s.host[int(v)*s.dim : (int(v)+1)*s.dim]
}

// GatherInto performs the Extract stage for one sample: it fills dst with
// the features of the sample's unique input vertices, serving each row
// from the cached tier on a hit and from host memory on a miss, and
// returns the hit/miss counts. dst is resized to len(Input)×dim, reusing
// its backing array when the capacity suffices; every row is fully
// overwritten, so a reused matrix is bit-identical to a new one.
func (s *Store) GatherInto(dst *tensor.Matrix, smp *sampling.Sample) (int, int) {
	if dst.Reuse(len(smp.Input), s.dim) {
		s.gatherGrows.Add(1)
	} else {
		s.gatherReuses.Add(1)
	}
	hits, misses := 0, 0
	for local, v := range smp.Input {
		row := dst.Row(local)
		if s.table != nil {
			if slot, ok := s.table.Slot(v); ok {
				copy(row, s.cached[int(slot)*s.dim:(int(slot)+1)*s.dim])
				hits++
				continue
			}
		}
		copy(row, s.hostRow(v))
		misses++
	}
	s.hits.Add(int64(hits))
	s.misses.Add(int64(misses))
	return hits, misses
}

// GatherStats returns how many GatherInto calls reused vs. grew their
// destination buffer.
func (s *Store) GatherStats() (reuses, grows int64) {
	return s.gatherReuses.Load(), s.gatherGrows.Load()
}

// Stats returns the accumulated gather counters.
func (s *Store) Stats() (hits, misses int64) {
	return s.hits.Load(), s.misses.Load()
}

// SetStats rewinds the gather counters to a snapshot from Stats, so a
// crashed-and-restored epoch's partial gathers do not pollute the
// reported hit rate.
func (s *Store) SetStats(hits, misses int64) {
	s.hits.Store(hits)
	s.misses.Store(misses)
}

// HitRate returns the accumulated cache hit rate.
func (s *Store) HitRate() float64 {
	h, m := s.Stats()
	if h+m == 0 {
		return 0
	}
	return float64(h) / float64(h+m)
}
