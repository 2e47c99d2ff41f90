// Package device models the hardware substrate the paper's testbed
// provides: GPUs with limited memory (byte-accurate allocation ledger whose
// exhaustion is the OOM the evaluation tables report), PCIe links, host
// memory bandwidth shared across concurrent extractors, and a calibrated
// cost model translating real measured work (sampled edges, missed feature
// bytes, training FLOPs) into simulated stage durations.
//
// Everything is scaled 1/100 from the paper's V100 testbed, matching the
// 1/100-scale datasets of internal/gen, so all capacity ratios are
// preserved (see DESIGN.md).
package device

import (
	"errors"
	"fmt"
	"sort"
	"sync"
)

// ErrOutOfMemory is returned when an allocation exceeds a GPU's capacity.
// This is the "OOM" the paper's Tables 4 and 5 report for DGL and T_SOTA
// on the UK dataset.
var ErrOutOfMemory = errors.New("device: out of GPU memory")

// ErrInjected marks an allocation failure forced by a fault plan rather
// than the ledger arithmetic. It wraps ErrOutOfMemory so every OOM check
// (errors.Is) treats injected failures like real exhaustion.
var ErrInjected = fmt.Errorf("device: injected allocation fault: %w", ErrOutOfMemory)

// AllocFault decides whether an allocation request should fail
// artificially. It runs under the GPU lock and must be fast and pure.
type AllocFault func(label string, bytes int64) bool

// GPU is a device with a fixed memory capacity and a labelled allocation
// ledger. The ledger makes memory pressure inspectable: Figure 3's
// per-stage memory breakdown is a dump of it.
type GPU struct {
	id       int
	capacity int64

	mu     sync.Mutex
	allocs map[string]int64
	used   int64
	fault  AllocFault
}

// NewGPU returns a GPU with the given ID and capacity in bytes.
func NewGPU(id int, capacity int64) *GPU {
	if capacity <= 0 {
		panic("device: NewGPU with non-positive capacity")
	}
	return &GPU{id: id, capacity: capacity, allocs: map[string]int64{}}
}

// Available returns unallocated bytes.
func (g *GPU) Available() int64 {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.capacity - g.used
}

// InjectAllocFault installs (or, with nil, removes) an allocation-fault
// hook: Alloc requests the hook vetoes fail with ErrInjected before the
// ledger is consulted. Fault plans use this to model flaky device memory.
func (g *GPU) InjectAllocFault(fn AllocFault) {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.fault = fn
}

// Alloc reserves bytes under label, failing with ErrOutOfMemory (wrapped
// with the label and sizes) when capacity would be exceeded, or with
// ErrInjected when an installed fault hook vetoes the request. Allocating
// an existing label grows it.
func (g *GPU) Alloc(label string, bytes int64) error {
	if bytes < 0 {
		return fmt.Errorf("device: negative allocation %d for %q", bytes, label)
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.fault != nil && g.fault(label, bytes) {
		return fmt.Errorf("device: gpu%d alloc %q (%d B): %w", g.id, label, bytes, ErrInjected)
	}
	if g.used+bytes > g.capacity {
		return fmt.Errorf("device: gpu%d alloc %q (%d B): used %d of %d: %w",
			g.id, label, bytes, g.used, g.capacity, ErrOutOfMemory)
	}
	g.allocs[label] += bytes
	g.used += bytes
	return nil
}

// Allocation describes one ledger entry.
type Allocation struct {
	Label string
	Bytes int64
}

// Ledger returns the current allocations sorted by label.
func (g *GPU) Ledger() []Allocation {
	g.mu.Lock()
	defer g.mu.Unlock()
	out := make([]Allocation, 0, len(g.allocs))
	for label, bytes := range g.allocs {
		out = append(out, Allocation{Label: label, Bytes: bytes})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Label < out[j].Label })
	return out
}
