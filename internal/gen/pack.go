package gen

import "gnnlab/internal/graph"

// PackDataset returns a shallow copy of d whose topology is converted to
// the compressed Packed layout (features, labels and the training set
// are shared). Datasets already holding a packed or otherwise non-CSR
// view are returned unchanged — the caller keeps snapshot views intact.
// Every call pays the O(|E|) encode; a caller that packs one dataset
// repeatedly keeps the result (measure.Store.Dataset does).
func PackDataset(d *Dataset) *Dataset {
	c := d.CSR()
	if c == nil {
		return d
	}
	pd := *d
	pd.Graph = graph.Pack(c, 0)
	return &pd
}
