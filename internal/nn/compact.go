// Package nn implements real GNN models — GCN, GraphSAGE and a
// PinSAGE-style convolution — with hand-written forward and backward
// passes over the tensor substrate. It exists so the convergence
// experiment (§7.7, Fig 16) trains a real model to a real accuracy target
// rather than simulating loss curves; it is also what a Trainer executes
// in the live runtime of internal/train.
package nn

import (
	"fmt"

	"gnnlab/internal/sampling"
)

// Compact is a sampling.Sample reshaped for GNN computation: a per-vertex
// sampled-neighbor CSR over local IDs, plus the per-level active prefix.
//
// GNNLab's sampler deduplicates vertices across hops (Figure 1): each
// unique vertex's neighborhood is sampled once, when first discovered, and
// reused by every GNN layer that needs it. Because local IDs are assigned
// in discovery order, the set of vertices a GNN level operates on is
// always a prefix of the local ID space.
type Compact struct {
	NumVertices int
	NumSeeds    int
	NumLevels   int // == number of GNN layers L

	// Needed[l] is how many local vertices need activations at level l:
	// Needed[0] = NumVertices (raw features), Needed[L] = NumSeeds.
	Needed []int

	// AdjStart/AdjNbr is a CSR of each local vertex's sampled neighbors.
	// Leaves (vertices never expanded) have empty lists.
	AdjStart []int32
	AdjNbr   []int32

	// Build scratch, reused across NewCompactInto calls on the same
	// Compact: per-vertex degree counts, the CSR fill cursor, and the
	// sample validator (its duplicate-ID set resets by a counter bump,
	// not a reallocation).
	counts []int32
	next   []int32
	check  sampling.Validator
}

// NewCompact converts a sample into compact form. It returns an error when
// the sample's layer structure is inconsistent.
func NewCompact(s *sampling.Sample) (*Compact, error) {
	c := &Compact{}
	if err := NewCompactInto(c, s); err != nil {
		return nil, err
	}
	return c, nil
}

// NewCompactInto rebuilds c from s, reusing c's slices and validator.
// The result is identical to NewCompact's; in steady state (shapes no
// larger than a previous call's) it performs zero heap allocations. The
// rebuilt Compact is valid until the next NewCompactInto on the same c.
func NewCompactInto(c *Compact, s *sampling.Sample) error {
	if err := c.check.Check(s); err != nil {
		return err
	}
	l := len(s.Layers)
	c.NumVertices = len(s.Input)
	c.NumSeeds = len(s.Seeds)
	c.NumLevels = l
	c.Needed = growInts(c.Needed, l+1)
	c.Needed[0] = len(s.Input)
	for lv := 1; lv <= l; lv++ {
		// After GNN level lv, activations cover vertices known after
		// sampling hop L-lv.
		hop := l - lv
		if hop == 0 {
			c.Needed[lv] = len(s.Seeds)
		} else {
			c.Needed[lv] = s.Layers[hop-1].NumVertices
		}
	}

	counts := growInt32s(c.counts, c.NumVertices+1)
	clear(counts)
	for _, layer := range s.Layers {
		for _, d := range layer.Dst {
			counts[d+1]++
		}
	}
	c.counts = counts
	c.AdjStart = growInt32s(c.AdjStart, c.NumVertices+1)
	c.AdjStart[0] = 0
	for v := 0; v < c.NumVertices; v++ {
		c.AdjStart[v+1] = c.AdjStart[v] + counts[v+1]
	}
	c.AdjNbr = growInt32s(c.AdjNbr, int(c.AdjStart[c.NumVertices]))
	next := growInt32s(c.next, c.NumVertices)
	copy(next, c.AdjStart[:c.NumVertices])
	for _, layer := range s.Layers {
		for i, d := range layer.Dst {
			c.AdjNbr[next[d]] = layer.Src[i]
			next[d]++
		}
	}
	c.next = next
	return nil
}

// Neighbors returns the sampled neighbor locals of vertex v.
func (c *Compact) Neighbors(v int32) []int32 {
	return c.AdjNbr[c.AdjStart[v]:c.AdjStart[v+1]]
}

// Validate checks internal consistency.
func (c *Compact) Validate() error {
	if len(c.Needed) != c.NumLevels+1 {
		return fmt.Errorf("nn: Needed has %d entries for %d levels", len(c.Needed), c.NumLevels)
	}
	if c.Needed[0] != c.NumVertices || c.Needed[c.NumLevels] != c.NumSeeds {
		return fmt.Errorf("nn: Needed endpoints %d/%d, want %d/%d",
			c.Needed[0], c.Needed[c.NumLevels], c.NumVertices, c.NumSeeds)
	}
	for l := 1; l < len(c.Needed); l++ {
		if c.Needed[l] > c.Needed[l-1] {
			return fmt.Errorf("nn: Needed not non-increasing at level %d", l)
		}
	}
	for _, nbr := range c.AdjNbr {
		if nbr < 0 || int(nbr) >= c.NumVertices {
			return fmt.Errorf("nn: neighbor local %d out of range", nbr)
		}
	}
	return nil
}

// growInts returns buf resliced to length n, reallocating only when the
// capacity is insufficient. Contents are unspecified.
func growInts(buf []int, n int) []int {
	if cap(buf) < n {
		return make([]int, n)
	}
	return buf[:n]
}

// growInt32s is growInts for []int32.
func growInt32s(buf []int32, n int) []int32 {
	if cap(buf) < n {
		return make([]int32, n)
	}
	return buf[:n]
}
