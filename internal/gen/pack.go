package gen

import (
	"sync"

	"gnnlab/internal/graph"
)

// packCache memoizes CSR→Packed conversions by topology identity. Load
// memoizes Datasets process-wide, so every experiment in a -packed run
// asks for the same underlying CSR; packing it once mirrors how the
// generated graphs themselves are cached. Entries use the same
// once+done publication scheme as the sampling weight tables so
// concurrent experiments pack exactly once without holding a lock on
// the hot path.
var packCache sync.Map // *graph.CSR -> *packEntry

type packEntry struct {
	once sync.Once
	p    *graph.Packed
}

// PackDataset returns a shallow copy of d whose topology is converted to
// the compressed Packed layout (features, labels and the training set
// are shared). Datasets already holding a packed or otherwise non-CSR
// view are returned unchanged — the caller keeps snapshot views intact.
// The conversion is memoized per underlying CSR, so repeated loads of a
// cached preset pay the O(|E|) encode once.
func PackDataset(d *Dataset) *Dataset {
	c := d.CSR()
	if c == nil {
		return d
	}
	e, _ := packCache.LoadOrStore(c, &packEntry{})
	ent := e.(*packEntry)
	ent.once.Do(func() {
		ent.p = graph.Pack(c, 0)
	})
	pd := *d
	pd.Graph = ent.p
	return &pd
}
