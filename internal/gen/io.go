package gen

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"

	"gnnlab/internal/graph"
)

// Dataset disk format, little endian:
//
//	magic     uint32 = 0x474E4C44 ("GNLD")
//	flags     uint32 (bit 0: labels, bit 1: features)
//	dim       uint32
//	classes   uint32
//	tsLen     uint64
//	trainSet  tsLen × int32
//	graph     (binary CSR or packed topology, see internal/graph)
//	labels    |V| × int32            (when flagged)
//	features  |V|·dim × float32      (when flagged)
//
// It lets gnnlab-gen persist complete datasets and makes the Table 6
// disk→DRAM step reproducible against a real file. The graph section is
// self-describing: readers dispatch on its magic, so a dataset written
// with -packed (compressed topology, ~2.5-3.5x smaller) round-trips
// through the same ReadDataset call as a CSR one.

const datasetMagic uint32 = 0x474E4C44

// WriteDataset serializes d.
func WriteDataset(w io.Writer, d *Dataset) error {
	bw := bufio.NewWriterSize(w, 1<<20)
	var flags uint32
	if d.Labels != nil {
		flags |= 1
	}
	if d.Features != nil {
		flags |= 2
	}
	hdr := []any{datasetMagic, flags, uint32(d.FeatureDim), uint32(d.NumClasses), uint64(len(d.TrainSet))}
	for _, v := range hdr {
		if err := binary.Write(bw, binary.LittleEndian, v); err != nil {
			return fmt.Errorf("gen: write dataset header: %w", err)
		}
	}
	if err := binary.Write(bw, binary.LittleEndian, d.TrainSet); err != nil {
		return fmt.Errorf("gen: write train set: %w", err)
	}
	if err := bw.Flush(); err != nil {
		return err
	}
	switch g := d.Graph.(type) {
	case *graph.CSR:
		if err := graph.WriteBinary(w, g); err != nil {
			return err
		}
	case *graph.Packed:
		if err := graph.WritePacked(w, g); err != nil {
			return err
		}
	default:
		return fmt.Errorf("gen: dataset %s holds a non-serializable graph view; Compact() it before writing", d.Name)
	}
	bw.Reset(w)
	if d.Labels != nil {
		if err := binary.Write(bw, binary.LittleEndian, d.Labels); err != nil {
			return fmt.Errorf("gen: write labels: %w", err)
		}
	}
	if d.Features != nil {
		if err := binary.Write(bw, binary.LittleEndian, d.Features); err != nil {
			return fmt.Errorf("gen: write features: %w", err)
		}
	}
	return bw.Flush()
}

// ReadDataset deserializes a dataset written by WriteDataset. The caller
// provides the Name.
func ReadDataset(rd io.Reader, name string) (*Dataset, error) {
	r := bufio.NewReaderSize(rd, 1<<20)
	var magic, flags, dim, classes uint32
	var tsLen uint64
	for _, v := range []any{&magic, &flags, &dim, &classes, &tsLen} {
		if err := binary.Read(r, binary.LittleEndian, v); err != nil {
			return nil, fmt.Errorf("gen: read dataset header: %w", err)
		}
	}
	if magic != datasetMagic {
		return nil, fmt.Errorf("gen: bad dataset magic %#x", magic)
	}
	const maxReasonable = 1 << 33
	if tsLen > maxReasonable || dim == 0 || dim > 1<<20 {
		return nil, fmt.Errorf("gen: implausible dataset header (dim=%d ts=%d)", dim, tsLen)
	}
	d := &Dataset{Name: name, FeatureDim: int(dim), NumClasses: int(classes)}
	// Section lengths are untrusted header fields: every section grows as
	// its bytes arrive rather than being reserved up front.
	var err error
	if d.TrainSet, err = graph.AppendSection(r, []int32{}, tsLen); err != nil {
		return nil, fmt.Errorf("gen: read train set: %w", err)
	}
	// The graph section is self-describing: peek its magic to pick the
	// CSR or packed reader without consuming bytes.
	peek, err := r.Peek(4)
	if err != nil {
		return nil, fmt.Errorf("gen: read graph magic: %w", err)
	}
	if binary.LittleEndian.Uint32(peek) == graph.PackedMagic {
		p, err := graph.ReadPackedFrom(r)
		if err != nil {
			return nil, err
		}
		d.Graph = p
	} else {
		g, err := graph.ReadBinaryFrom(r)
		if err != nil {
			return nil, err
		}
		d.Graph = g
	}
	n := d.Graph.NumVertices()
	for _, v := range d.TrainSet {
		if v < 0 || int(v) >= n {
			return nil, fmt.Errorf("gen: train vertex %d out of range (n=%d)", v, n)
		}
	}
	if flags&1 != 0 {
		if d.Labels, err = graph.AppendSection(r, []int32{}, uint64(n)); err != nil {
			return nil, fmt.Errorf("gen: read labels: %w", err)
		}
	}
	if flags&2 != 0 {
		if d.Features, err = graph.AppendSection(r, []float32{}, uint64(n)*uint64(dim)); err != nil {
			return nil, fmt.Errorf("gen: read features: %w", err)
		}
	}
	return d, nil
}
