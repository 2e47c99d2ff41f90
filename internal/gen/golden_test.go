package gen

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"runtime"
	"testing"
)

// datasetDigest is an FNV-64a digest over every byte a generator decides:
// RowPtr, ColIdx, Weights, Labels, Features and TrainSet, little-endian,
// each section prefixed by its length.
func datasetDigest(d *Dataset) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	put := func(x uint64) {
		binary.LittleEndian.PutUint64(buf[:], x)
		h.Write(buf[:])
	}
	g := d.CSR()
	put(uint64(len(g.RowPtr)))
	for _, x := range g.RowPtr {
		put(uint64(x))
	}
	put(uint64(len(g.ColIdx)))
	for _, x := range g.ColIdx {
		put(uint64(uint32(x)))
	}
	put(uint64(len(g.Weights)))
	for _, x := range g.Weights {
		put(uint64(math.Float32bits(x)))
	}
	put(uint64(len(d.Labels)))
	for _, x := range d.Labels {
		put(uint64(uint32(x)))
	}
	put(uint64(len(d.Features)))
	for _, x := range d.Features {
		put(uint64(math.Float32bits(x)))
	}
	put(uint64(len(d.TrainSet)))
	for _, x := range d.TrainSet {
		put(uint64(uint32(x)))
	}
	return h.Sum64()
}

// TestDatasetBytesGolden pins every byte each generator produces, weighted
// and unweighted, at GOMAXPROCS 1, 2 and 4: dataset bytes depend on the
// Config alone (DESIGN.md, "Parallel measurement engine" rule 4). The
// digests were recorded before the Zipf acceptance table and generation's
// row-pool fan-outs existed, so they also show that those moved no byte.
// The sizes are large enough that the table, the batched draws and
// Build's row sorts all fan out. A digest moves only when generation
// itself is meant to change.
func TestDatasetBytesGolden(t *testing.T) {
	want := map[string]uint64{
		"co-purchase/weighted":   0x411450f002ff02d3,
		"co-purchase/unweighted": 0xafeea25093e8c5a6,
		"social/weighted":        0x87c62e65e314e6dd,
		"social/unweighted":      0xd5b12b3ce11a0a7a,
		"citation/weighted":      0x3851d93f33c23683,
		"citation/unweighted":    0xf18637a1672ee10f,
		"web/weighted":           0xee7abfbce2c0b712,
		"web/unweighted":         0xd44eab3e18d5629e,
		"community/weighted":     0xd463f6020f6a6b18,
		"community/unweighted":   0x82595d3468d0e824,
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 2, 4} {
		runtime.GOMAXPROCS(procs)
		for _, kind := range []Kind{KindCoPurchase, KindSocial, KindCitation, KindWeb, KindCommunity} {
			for _, weighted := range []bool{true, false} {
				cfg := Config{
					Name: "golden", Kind: kind,
					NumVertices: 6000, NumEdges: 80_000,
					FeatureDim: 8, TrainFraction: 0.05,
					NumClasses: 4, MaterializeFeatures: true,
					Weighted: weighted, Seed: 0x60D,
				}
				name := fmt.Sprintf("%v/%s", kind, map[bool]string{true: "weighted", false: "unweighted"}[weighted])
				d, err := Generate(cfg)
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				if got := datasetDigest(d); got != want[name] {
					t.Errorf("GOMAXPROCS %d: %s digest %#016x, want %#016x", procs, name, got, want[name])
				}
			}
		}
	}
}
