package cache

import (
	"fmt"
	"sync/atomic"
)

// Table is the runtime cache index built by Load (the paper's load_cache
// procedure, §6.1): it maps a vertex to its slot in the GPU-resident
// feature cache, or reports a miss. Lookups are wait-free; the hit/miss
// counters are atomic so concurrent trainers can share a table.
type Table struct {
	// slot[v] is the cache slot of v, or -1 when v is not cached.
	slot []int32
	// cached lists the cached vertices in ranking order (slot order).
	cached             []int32
	numVertices        int
	vertexFeatureBytes int64

	hits      atomic.Int64
	misses    atomic.Int64
	missBytes atomic.Int64
}

// Load builds a Table caching the first `slots` vertices of ranking — the
// top-ranked α|V| vertices w.r.t. the hotness metric.
func Load(ranking []int32, slots int, numVertices int, vertexFeatureBytes int64) (*Table, error) {
	if slots < 0 || slots > len(ranking) {
		return nil, fmt.Errorf("cache: slots %d out of range [0,%d]", slots, len(ranking))
	}
	t := &Table{
		slot:               make([]int32, numVertices),
		cached:             make([]int32, slots),
		numVertices:        numVertices,
		vertexFeatureBytes: vertexFeatureBytes,
	}
	for i := range t.slot {
		t.slot[i] = -1
	}
	for i := 0; i < slots; i++ {
		v := ranking[i]
		if v < 0 || int(v) >= numVertices {
			return nil, fmt.Errorf("cache: ranking entry %d out of range (n=%d)", v, numVertices)
		}
		if t.slot[v] != -1 {
			return nil, fmt.Errorf("cache: vertex %d ranked twice", v)
		}
		t.slot[v] = int32(i)
		t.cached[i] = v
	}
	return t, nil
}

// Empty returns a table that caches nothing (the no-cache baselines).
func Empty(numVertices int, vertexFeatureBytes int64) *Table {
	t, err := Load(nil, 0, numVertices, vertexFeatureBytes)
	if err != nil {
		panic(err) // unreachable: zero slots cannot fail
	}
	return t
}

// NumSlots returns the number of cached vertices.
func (t *Table) NumSlots() int { return len(t.cached) }

// Cached returns the resident vertices in slot order: Cached()[i] is the
// vertex stored in slot i. The slice is the table's own — callers must
// not modify it. It lets cache consumers (e.g. feature.Store.EnableCache)
// visit exactly the residents in O(slots) instead of probing all |V|.
func (t *Table) Cached() []int32 { return t.cached }

// Ratio returns the cache ratio α.
func (t *Table) Ratio() float64 { return RatioFor(len(t.cached), t.numVertices) }

// VertexFeatureBytes returns the per-vertex feature size the table was
// built with.
func (t *Table) VertexFeatureBytes() int64 { return t.vertexFeatureBytes }

// Slot returns v's cache slot and whether it is cached.
func (t *Table) Slot(v int32) (int32, bool) {
	s := t.slot[v]
	return s, s >= 0
}

// Probe counts cache hits and misses over a mini-batch's unique input
// vertices without touching the accumulated counters. It is the single
// lookup path shared by Extract and by side probes (e.g. the standby
// table in internal/core), and is safe for concurrent use.
func (t *Table) Probe(input []int32) (hits, misses int) {
	for _, v := range input {
		if t.slot[v] >= 0 {
			hits++
		} else {
			misses++
		}
	}
	return hits, misses
}

// Extract accounts one mini-batch extraction over the unique input
// vertices: it returns the hit and miss counts and adds them to the
// table's running counters.
func (t *Table) Extract(input []int32) (hits, misses int) {
	hits, misses = t.Probe(input)
	t.hits.Add(int64(hits))
	t.misses.Add(int64(misses))
	t.missBytes.Add(int64(misses) * t.vertexFeatureBytes)
	return hits, misses
}

// Stats is a snapshot of the table's accumulated accounting.
type Stats struct {
	Hits, Misses int64
	MissBytes    int64
}

// HitRate returns the fraction of extractions served from the cache.
func (s Stats) HitRate() float64 {
	total := s.Hits + s.Misses
	if total == 0 {
		return 0
	}
	return float64(s.Hits) / float64(total)
}

// Stats returns a snapshot of the accumulated counters.
func (t *Table) Stats() Stats {
	return Stats{
		Hits:      t.hits.Load(),
		Misses:    t.misses.Load(),
		MissBytes: t.missBytes.Load(),
	}
}
