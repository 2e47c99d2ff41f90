package tensor

import "testing"

func TestMatrixReuse(t *testing.T) {
	var m Matrix
	if !m.Reuse(3, 4) {
		t.Error("first Reuse on a zero Matrix should grow")
	}
	if m.Rows != 3 || m.Cols != 4 || len(m.Data) != 12 {
		t.Fatalf("Reuse shape %dx%d len %d", m.Rows, m.Cols, len(m.Data))
	}
	m.Data[0] = 7
	if m.Reuse(2, 3) {
		t.Error("shrinking Reuse should not grow")
	}
	if m.Data[0] != 7 {
		t.Error("Reuse cleared retained backing")
	}
	if !m.Reuse(5, 5) {
		t.Error("Reuse past capacity should grow")
	}
}

func TestArenaSlotsStabilize(t *testing.T) {
	var a Arena
	pass := func() (m1, m2 *Matrix, fs []float32, v *Matrix) {
		a.Reset()
		m1 = a.Matrix(4, 3)
		m2 = a.Matrix(2, 2)
		fs = a.Floats(5)
		v = a.View(2, 2, m2.Data)
		return
	}
	m1a, m2a, fsa, va := pass()
	for i := range m1a.Data {
		m1a.Data[i] = float32(i)
	}
	grows := a.Grows()
	m1b, m2b, fsb, vb := pass()
	if a.Grows() != grows {
		t.Errorf("second identical pass grew: %d -> %d", grows, a.Grows())
	}
	if m1a != m1b || m2a != m2b || va != vb {
		t.Error("arena did not reuse matrix/view headers")
	}
	if &fsa[0] != &fsb[0] {
		t.Error("arena did not reuse float backing")
	}
	for i, x := range m1b.Data {
		if x != 0 {
			t.Fatalf("reused matrix not zeroed at %d", i)
		}
	}
	// Bigger shapes grow the same slots; smaller ones reuse them.
	a.Reset()
	if a.Matrix(8, 3); a.Grows() == grows {
		t.Error("larger matrix request should grow the slot")
	}
	grows = a.Grows()
	a.Reset()
	a.Matrix(2, 2)
	if a.Grows() != grows {
		t.Error("smaller matrix request grew the slot")
	}
}

func TestArenaMatrixZeroAllocSteadyState(t *testing.T) {
	var a Arena
	for i := 0; i < 3; i++ { // warm all slots to max size
		a.Reset()
		a.Matrix(6, 6)
		a.Floats(9)
		a.View(6, 6, a.mats[0].Data)
	}
	allocs := testing.AllocsPerRun(50, func() {
		a.Reset()
		m := a.Matrix(6, 6)
		a.Floats(9)
		a.View(6, 6, m.Data)
	})
	if allocs != 0 {
		t.Errorf("steady-state arena pass allocates %v times", allocs)
	}
}
