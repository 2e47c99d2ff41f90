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

// Compact is a sampling.Sample viewed for GNN computation: the sample's
// per-vertex sampled-neighbor CSR over local IDs, plus the per-level
// active prefix.
//
// GNNLab's sampler deduplicates vertices across hops (Figure 1): each
// unique vertex's neighborhood is sampled once, when first discovered, and
// reused by every GNN layer that needs it. Because local IDs are assigned
// in discovery order, the set of vertices a GNN level operates on is
// always a prefix of the local ID space.
type Compact struct {
	NumVertices int
	NumLevels   int // == number of GNN layers L

	// Needed[l] is how many local vertices need activations at level l:
	// Needed[0] = NumVertices (raw features), Needed[L] = the seed count.
	Needed []int

	// AdjStart/AdjNbr alias the sample's CSR of each local vertex's
	// sampled neighbors. Leaves (vertices never expanded) have empty lists.
	AdjStart []int32
	AdjNbr   []int32
}

// NewCompactInto makes c a view of s: it fills Needed, reusing c's slice,
// and aliases the CSR the sampler wrote as it localized, so nothing is
// rebuilt or copied and a warm c allocates nothing. A zero Compact is
// ready. The view is valid until the next NewCompactInto on c and only
// while s's buffers are (a built-in sampler reuses them on its next
// Sample call). It returns an error when s carries no CSR over its
// inputs. The sample's other invariants are the sampler's own: the
// built-in samplers establish them, and sampling.Validator checks samples
// from anywhere else.
func NewCompactInto(c *Compact, s *sampling.Sample) error {
	if len(s.AdjStart) != len(s.Input)+1 || len(s.Input) < len(s.Seeds) {
		return fmt.Errorf("nn: sample has %d seeds, %d inputs and %d CSR row starts", len(s.Seeds), len(s.Input), len(s.AdjStart))
	}
	l := len(s.Layers)
	c.NumVertices = len(s.Input)
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
	c.AdjStart, c.AdjNbr = s.AdjStart, s.AdjNbr
	return nil
}

// Neighbors returns the sampled neighbor locals of vertex v.
func (c *Compact) Neighbors(v int32) []int32 {
	return c.AdjNbr[c.AdjStart[v]:c.AdjStart[v+1]]
}

// edges returns how many sampled neighbours the first n local vertices
// have in all.
func (c *Compact) edges(n int) int {
	return int(c.AdjStart[n] - c.AdjStart[0])
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
