package nn

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"

	"gnnlab/internal/tensor"
)

// Parameter-state utilities: replica synchronization for data-parallel
// training and binary checkpointing.

// CopyParams copies parameter values from src to dst (shapes must match).
func CopyParams(dst, src []*tensor.Param) error {
	if len(dst) != len(src) {
		return fmt.Errorf("nn: parameter count mismatch %d vs %d", len(dst), len(src))
	}
	for i := range dst {
		if len(dst[i].Value.Data) != len(src[i].Value.Data) {
			return fmt.Errorf("nn: parameter %d shape mismatch", i)
		}
		copy(dst[i].Value.Data, src[i].Value.Data)
	}
	return nil
}

// AccumulateGrads adds src's gradients into dst's and clears src's — the
// gradient-exchange step of synchronous data parallelism.
func AccumulateGrads(dst, src []*tensor.Param) error {
	if len(dst) != len(src) {
		return fmt.Errorf("nn: parameter count mismatch %d vs %d", len(dst), len(src))
	}
	for i := range dst {
		if len(dst[i].Grad.Data) != len(src[i].Grad.Data) {
			return fmt.Errorf("nn: parameter %d shape mismatch", i)
		}
		tensor.AXPY(1, src[i].Grad.Data, dst[i].Grad.Data)
		src[i].Grad.Zero()
	}
	return nil
}

const checkpointMagic uint32 = 0x474E4E32 // "GNN2"

// SaveCheckpoint writes the model's parameter values in a simple binary
// format (magic, count, then per-parameter rows/cols/float32 data).
func (m *Model) SaveCheckpoint(w io.Writer) error {
	bw := bufio.NewWriter(w)
	params := m.Params()
	if err := binary.Write(bw, binary.LittleEndian, checkpointMagic); err != nil {
		return fmt.Errorf("nn: write checkpoint header: %w", err)
	}
	if err := binary.Write(bw, binary.LittleEndian, uint32(len(params))); err != nil {
		return fmt.Errorf("nn: write checkpoint count: %w", err)
	}
	for i, p := range params {
		hdr := []uint32{uint32(p.Value.Rows), uint32(p.Value.Cols)}
		if err := binary.Write(bw, binary.LittleEndian, hdr); err != nil {
			return fmt.Errorf("nn: write param %d header: %w", i, err)
		}
		if err := binary.Write(bw, binary.LittleEndian, p.Value.Data); err != nil {
			return fmt.Errorf("nn: write param %d data: %w", i, err)
		}
	}
	return bw.Flush()
}

// LoadCheckpoint restores parameter values written by SaveCheckpoint into
// a model of the identical architecture. The load is all-or-nothing: every
// value is read into a staging buffer sized by the model (never by the
// checkpoint's headers) and copied in only once the whole checkpoint has
// been read, so a rejected checkpoint leaves the model unchanged.
func (m *Model) LoadCheckpoint(r io.Reader) error {
	br := bufio.NewReader(r)
	var magic, count uint32
	if err := binary.Read(br, binary.LittleEndian, &magic); err != nil {
		return fmt.Errorf("nn: read checkpoint header: %w", err)
	}
	if magic != checkpointMagic {
		return fmt.Errorf("nn: bad checkpoint magic %#x", magic)
	}
	params := m.Params()
	if err := binary.Read(br, binary.LittleEndian, &count); err != nil {
		return fmt.Errorf("nn: read checkpoint count: %w", err)
	}
	if int(count) != len(params) {
		return fmt.Errorf("nn: checkpoint has %d parameters, model has %d", count, len(params))
	}
	total := 0
	for _, p := range params {
		total += len(p.Value.Data)
	}
	staged := make([]float32, total)
	off := 0
	for i, p := range params {
		var rows, cols uint32
		if err := binary.Read(br, binary.LittleEndian, &rows); err != nil {
			return fmt.Errorf("nn: read param %d rows: %w", i, err)
		}
		if err := binary.Read(br, binary.LittleEndian, &cols); err != nil {
			return fmt.Errorf("nn: read param %d cols: %w", i, err)
		}
		if int(rows) != p.Value.Rows || int(cols) != p.Value.Cols {
			return fmt.Errorf("nn: param %d shape %dx%d, model has %dx%d",
				i, rows, cols, p.Value.Rows, p.Value.Cols)
		}
		n := len(p.Value.Data)
		if err := binary.Read(br, binary.LittleEndian, staged[off:off+n]); err != nil {
			return fmt.Errorf("nn: read param %d data: %w", i, err)
		}
		off += n
	}
	off = 0
	for _, p := range params {
		off += copy(p.Value.Data, staged[off:])
	}
	return nil
}
