package measure

import (
	"sync"
	"sync/atomic"

	"gnnlab/internal/obs"
	"gnnlab/internal/sampling"
)

// Store is a content-keyed measurement cache. Experiment cells whose
// sampling work shares a Spec measure once and replay many times; cells
// run concurrently, so each entry is produced under a per-key
// single-flight guard (the second requester blocks until the first
// finishes, rather than duplicating the work). The store also memoizes
// cache rankings (RankKey), whose policies replay sampling of their own —
// PreSC pre-samples the training set, Optimal replays the full run.
//
// A Store never invalidates: Specs are content keys, so an entry is
// valid for as long as the process holds the (memoized) dataset it was
// measured on.
type Store struct {
	mu       sync.Mutex
	measures map[Spec]*entry[*Measurement]
	rankings map[RankKey]*entry[Ranking]

	hits      atomic.Int64
	misses    atomic.Int64
	coalesced atomic.Int64

	// Mirror counters in an observed metrics registry (nil-safe when the
	// store is unobserved). Set via Observe before concurrent use.
	mHits      *obs.Counter
	mMisses    *obs.Counter
	mCoalesced *obs.Counter
}

type entry[T any] struct {
	once sync.Once
	done atomic.Bool
	v    T
}

// NewStore returns an empty measurement store.
func NewStore() *Store {
	return &Store{
		measures: make(map[Spec]*entry[*Measurement]),
		rankings: make(map[RankKey]*entry[Ranking]),
	}
}

// Observe mirrors the store's counters into reg as store.hits,
// store.misses and store.coalesced_waits, seeding them with the current
// values. Call it before handing the store to concurrent runs; a nil
// registry leaves the store unobserved.
func (s *Store) Observe(reg *obs.Registry) {
	s.mHits = reg.Counter("store.hits")
	s.mMisses = reg.Counter("store.misses")
	s.mCoalesced = reg.Counter("store.coalesced_waits")
	s.mHits.Add(s.hits.Load())
	s.mMisses.Add(s.misses.Load())
	s.mCoalesced.Add(s.coalesced.Load())
}

// account books one request against an entry's in-flight state: ok
// means the entry existed (hit — coalesced when its work was still in
// flight), otherwise this request triggered the work (miss).
func (s *Store) account(ok, inFlight bool) {
	if !ok {
		s.misses.Add(1)
		s.mMisses.Add(1)
		return
	}
	s.hits.Add(1)
	s.mHits.Add(1)
	if inFlight {
		s.coalesced.Add(1)
		s.mCoalesced.Add(1)
	}
}

// GetOrMeasure returns the measurement stored under spec, producing it
// with collect on first request. Concurrent requests for the same spec
// share one collect call; a request that blocks on another's in-flight
// collect counts as a coalesced wait.
func (s *Store) GetOrMeasure(spec Spec, collect func() *Measurement) *Measurement {
	s.mu.Lock()
	e, ok := s.measures[spec]
	if !ok {
		e = &entry[*Measurement]{}
		s.measures[spec] = e
	}
	s.mu.Unlock()
	s.account(ok, ok && !e.done.Load())
	e.once.Do(func() {
		e.v = collect()
		e.done.Store(true)
	})
	return e.v
}

// RankKey is the content key of a cache-ranking computation. Policy
// parameters that change the ranking are in; the device cost model is
// out (PreSC's pre-sampling *time* is priced per configuration from the
// memoized edge counts).
type RankKey struct {
	Dataset   string
	Vertices  int
	Edges     int64
	Policy    string
	Algorithm string
	BatchSize int
	K         int
	Epochs    int
	Seed      uint64
}

// Ranking is a memoized cache ranking: the hotness-ordered vertex list
// plus, for PreSC, the pre-sampling edge counts its cost derives from
// (cache.Ranking.PreSample).
type Ranking struct {
	Order     []int32
	PreSample *sampling.Sample
}

// GetOrRank returns the ranking stored under key, producing it with rank
// on first request, single-flight like GetOrMeasure. Rankings count
// toward the same hit/miss/coalesced statistics.
func (s *Store) GetOrRank(key RankKey, rank func() Ranking) Ranking {
	s.mu.Lock()
	e, ok := s.rankings[key]
	if !ok {
		e = &entry[Ranking]{}
		s.rankings[key] = e
	}
	s.mu.Unlock()
	s.account(ok, ok && !e.done.Load())
	e.once.Do(func() {
		e.v = rank()
		e.done.Store(true)
	})
	return e.v
}

// Stats reports how often the store was consulted: hits are requests
// served from (or coalesced onto) an existing entry, misses are requests
// that triggered the work.
func (s *Store) Stats() (hits, misses int64) {
	return s.hits.Load(), s.misses.Load()
}

// CoalescedWaits reports how many hits blocked on an entry whose work
// was still in flight (single-flight coalescing), as opposed to hits
// served from a completed entry.
func (s *Store) CoalescedWaits() int64 {
	return s.coalesced.Load()
}
