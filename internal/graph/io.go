package graph

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
)

// Binary graph format, little endian:
//
//	magic   uint32 = 0x474E4C01 ("GNL" + version 1)
//	flags   uint32 (bit 0: weighted)
//	nVerts  uint64
//	nEdges  uint64
//	rowPtr  (nVerts+1) × int64
//	colIdx  nEdges × int32
//	weights nEdges × float32 (only when weighted)
//
// The format exists so the preprocessing-cost experiment (Table 6) can
// measure a real disk→DRAM load, and so generated datasets can be cached
// between benchmark runs.

const binaryMagic uint32 = 0x474E4C01

// WriteBinary serializes g to w in the binary graph format.
func WriteBinary(w io.Writer, g *CSR) error {
	bw := bufio.NewWriterSize(w, 1<<20)
	var flags uint32
	if g.Weights != nil {
		flags |= 1
	}
	hdr := []any{binaryMagic, flags, uint64(g.NumVertices()), uint64(g.NumEdges())}
	for _, v := range hdr {
		if err := binary.Write(bw, binary.LittleEndian, v); err != nil {
			return fmt.Errorf("graph: write header: %w", err)
		}
	}
	for _, section := range []any{g.RowPtr, g.ColIdx} {
		if err := binary.Write(bw, binary.LittleEndian, section); err != nil {
			return fmt.Errorf("graph: write section: %w", err)
		}
	}
	if g.Weights != nil {
		if err := binary.Write(bw, binary.LittleEndian, g.Weights); err != nil {
			return fmt.Errorf("graph: write weights: %w", err)
		}
	}
	return bw.Flush()
}

// ReadBinary deserializes a CSR previously written by WriteBinary.
func ReadBinary(r io.Reader) (*CSR, error) {
	return ReadBinaryFrom(bufio.NewReaderSize(r, 1<<20))
}

// ReadBinaryFrom deserializes a CSR reading exactly the graph's bytes from
// r (no internal buffering or read-ahead), so it composes inside larger
// container formats. Wrap r in a bufio.Reader for performance.
func ReadBinaryFrom(br io.Reader) (*CSR, error) {
	var magic, flags uint32
	var nVerts, nEdges uint64
	for _, v := range []any{&magic, &flags, &nVerts, &nEdges} {
		if err := binary.Read(br, binary.LittleEndian, v); err != nil {
			return nil, fmt.Errorf("graph: read header: %w", err)
		}
	}
	if magic != binaryMagic {
		return nil, fmt.Errorf("graph: bad magic %#x", magic)
	}
	const maxReasonable = 1 << 33
	if nVerts > maxReasonable || nEdges > maxReasonable {
		return nil, fmt.Errorf("graph: implausible sizes nVerts=%d nEdges=%d", nVerts, nEdges)
	}
	g := &CSR{}
	var err error
	if g.RowPtr, err = AppendSection[int64](br, nil, nVerts+1); err != nil {
		return nil, fmt.Errorf("graph: read row pointers: %w", err)
	}
	if g.ColIdx, err = AppendSection(br, []int32{}, nEdges); err != nil {
		return nil, fmt.Errorf("graph: read column indices: %w", err)
	}
	if flags&1 != 0 {
		// Non-nil even with no edges: nil Weights means unweighted.
		if g.Weights, err = AppendSection(br, []float32{}, nEdges); err != nil {
			return nil, fmt.Errorf("graph: read weights: %w", err)
		}
	}
	if err := g.Validate(); err != nil {
		return nil, err
	}
	return g, nil
}

// AppendSection appends n little-endian values read from r to out. Section
// lengths come from a file header, which is untrusted input: instead of
// reserving n values up front, the slice grows by doubling (capped at its
// final size) as chunks of the body arrive, so a header that claims 2^33
// entries over a short body fails on the short read after allocating a
// chunk, not gigabytes. Exactly n values' bytes are consumed on success.
func AppendSection[T byte | int32 | int64 | float32](r io.Reader, out []T, n uint64) ([]T, error) {
	const chunk = 1 << 14 // values per read
	end := uint64(len(out)) + n
	for uint64(len(out)) < end {
		k := int(min(end-uint64(len(out)), chunk))
		if len(out)+k > cap(out) {
			grown := make([]T, len(out), min(end, uint64(max(2*cap(out), len(out)+k))))
			copy(grown, out)
			out = grown
		}
		if err := binary.Read(r, binary.LittleEndian, out[len(out):len(out)+k]); err != nil {
			return nil, err
		}
		out = out[:len(out)+k]
	}
	return out, nil
}
