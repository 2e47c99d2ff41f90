package measure

import (
	"sync"
	"sync/atomic"

	"gnnlab/internal/gen"
	"gnnlab/internal/obs"
	"gnnlab/internal/sampling"
)

// Store is a content-keyed measurement cache. Experiment cells whose
// sampling work shares a Spec measure once and replay many times; cells
// run concurrently, so each entry is produced under a per-key
// single-flight guard (the second requester blocks until the first
// finishes, rather than duplicating the work). The store also memoizes
// cache rankings (RankKey), whose policies replay sampling of their own —
// PreSC pre-samples the training set, Optimal replays the full run — and
// the generated datasets those entries are measured on (Dataset).
//
// A Store never invalidates: Specs and gen.Configs are content keys, so
// an entry stays valid for the store's lifetime. The store is the only
// owner of what it holds: dropping it frees its measurements, rankings
// and datasets together.
type Store struct {
	mu       sync.Mutex
	measures map[Spec]*entry[*Measurement]
	rankings map[RankKey]*entry[Ranking]
	datasets map[datasetKey]*entry[loaded]

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
		datasets: make(map[datasetKey]*entry[loaded]),
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

// getOrDo returns the value stored under key in m, producing it with do
// on first request. Concurrent requests for one key share one do call.
func getOrDo[K comparable, T any](s *Store, m map[K]*entry[T], key K, do func() T) T {
	s.mu.Lock()
	e, ok := m[key]
	if !ok {
		e = &entry[T]{}
		m[key] = e
	}
	s.mu.Unlock()
	s.account(ok, ok && !e.done.Load())
	e.once.Do(func() {
		e.v = do()
		e.done.Store(true)
	})
	return e.v
}

// GetOrMeasure returns the measurement stored under spec, producing it
// with collect on first request. Concurrent requests for the same spec
// share one collect call; a request that blocks on another's in-flight
// collect counts as a coalesced wait.
func (s *Store) GetOrMeasure(spec Spec, collect func() *Measurement) *Measurement {
	return getOrDo(s, s.measures, spec, collect)
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
	return getOrDo(s, s.rankings, key, rank)
}

type datasetKey struct {
	cfg    gen.Config
	packed bool
}

// loaded is a dataset entry: the generated dataset, or the error that
// generating it returned (kept, so a bad config fails every request
// without regenerating).
type loaded struct {
	d   *gen.Dataset
	err error
}

// Dataset returns the dataset cfg generates, with its topology converted
// to the compressed packed layout when packed is set, generating it on
// first request, single-flight like GetOrMeasure. A packed entry is
// packed once from the store's own CSR entry for cfg (one more request),
// so the two share features, labels and training set. Datasets count
// toward the same hit/miss/coalesced statistics.
func (s *Store) Dataset(cfg gen.Config, packed bool) (*gen.Dataset, error) {
	l := getOrDo(s, s.datasets, datasetKey{cfg, packed}, func() loaded {
		if !packed {
			d, err := gen.Generate(cfg)
			return loaded{d, err}
		}
		d, err := s.Dataset(cfg, false)
		if err != nil {
			return loaded{err: err}
		}
		return loaded{d: gen.PackDataset(d)}
	})
	return l.d, l.err
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
