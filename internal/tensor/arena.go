package tensor

// Arena is a slot-ordered workspace for the training hot path: a fixed
// sequence of Matrix/Floats/View requests per pass (the sequence is
// determined by the model architecture, so it repeats every mini-batch)
// is served from pooled backing arrays instead of fresh heap
// allocations. Reset rewinds the slot cursors in O(1); backing arrays
// persist and grow monotonically to the largest shape each slot has
// seen, so steady-state passes allocate nothing.
//
// Everything handed out is borrowed: valid only until the next Reset.
// Matrices are zeroed on hand-out (several consumers accumulate into
// them with AXPY and rely on zero initialization, exactly like a fresh
// tensor.New); float slices and views are not cleared — their
// consumers overwrite every element.
//
// An Arena is not safe for concurrent use; pool one per worker.
type Arena struct {
	mats []*Matrix
	next int

	floats [][]float32
	fnext  int
	views  []*Matrix
	vnext  int

	grows int64
}

// Reset rewinds all slot cursors, recycling every borrowed buffer. Call
// once per mini-batch pass, before the first request.
func (a *Arena) Reset() {
	a.next, a.fnext, a.vnext = 0, 0, 0
}

// Grows returns the cumulative number of backing-array growths (each one
// is a heap allocation). A steady state has Grows flat.
func (a *Arena) Grows() int64 { return a.grows }

// Matrix returns a zeroed rows×cols matrix from the next matrix slot.
func (a *Arena) Matrix(rows, cols int) *Matrix {
	if a.next == len(a.mats) {
		a.mats = append(a.mats, &Matrix{})
		a.grows++
	}
	m := a.mats[a.next]
	a.next++
	if m.Reuse(rows, cols) {
		a.grows++
	}
	clear(m.Data)
	return m
}

// Floats returns a length-n float32 slice from the next float slot.
// Contents are unspecified: the caller must write every element.
func (a *Arena) Floats(n int) []float32 {
	if a.fnext == len(a.floats) {
		a.floats = append(a.floats, nil)
		a.grows++
	}
	buf := a.floats[a.fnext]
	if cap(buf) < n {
		buf = make([]float32, n)
		a.floats[a.fnext] = buf
		a.grows++
	}
	a.fnext++
	return buf[:n]
}

// View returns a pooled rows×cols matrix header over data (not copied) —
// the arena analogue of FromData, for aliasing sub-ranges of another
// matrix without allocating a header.
func (a *Arena) View(rows, cols int, data []float32) *Matrix {
	if len(data) != rows*cols {
		panic("tensor: Arena.View data length mismatch")
	}
	if a.vnext == len(a.views) {
		a.views = append(a.views, &Matrix{})
		a.grows++
	}
	v := a.views[a.vnext]
	a.vnext++
	v.Rows, v.Cols, v.Data = rows, cols, data
	return v
}
