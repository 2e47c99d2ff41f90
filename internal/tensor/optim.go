package tensor

import (
	"fmt"
	"math"
)

// Param is a trainable parameter: a value matrix with its gradient
// accumulator and Adam moments.
type Param struct {
	Value *Matrix
	Grad  *Matrix
	m, v  []float32
}

// NewParam allocates a parameter with zeroed gradient and moments.
func NewParam(rows, cols int) *Param {
	return &Param{
		Value: New(rows, cols),
		Grad:  New(rows, cols),
		m:     make([]float32, rows*cols),
		v:     make([]float32, rows*cols),
	}
}

// ZeroGrad clears the gradient accumulator.
func (p *Param) ZeroGrad() { p.Grad.Zero() }

// Adam is the Adam optimizer over a set of parameters.
type Adam struct {
	LR      float64
	Beta1   float64
	Beta2   float64
	Epsilon float64
	step    int
	params  []*Param
}

// NewAdam returns an Adam optimizer with standard defaults over params.
func NewAdam(lr float64, params []*Param) *Adam {
	return &Adam{LR: lr, Beta1: 0.9, Beta2: 0.999, Epsilon: 1e-8, params: params}
}

// Params returns the managed parameters.
func (a *Adam) Params() []*Param { return a.params }

// Step applies one Adam update from the accumulated gradients and clears
// them.
func (a *Adam) Step() {
	a.step++
	bc1 := 1 - math.Pow(a.Beta1, float64(a.step))
	bc2 := 1 - math.Pow(a.Beta2, float64(a.step))
	lr := a.LR * math.Sqrt(bc2) / bc1
	b1, b2 := float32(a.Beta1), float32(a.Beta2)
	for _, p := range a.params {
		g := p.Grad.Data
		val := p.Value.Data
		for i := range g {
			a.updateOne(p, i, g[i], val, lr, b1, b2)
		}
		p.Grad.Zero()
	}
}

func (a *Adam) updateOne(p *Param, i int, gi float32, val []float32, lr float64, b1, b2 float32) {
	p.m[i] = b1*p.m[i] + (1-b1)*gi
	p.v[i] = b2*p.v[i] + (1-b2)*gi*gi
	val[i] -= float32(lr * float64(p.m[i]) / (math.Sqrt(float64(p.v[i])) + a.Epsilon))
}

// AdamState is a deep snapshot of an Adam optimizer's position — the
// step counter and per-parameter moment vectors — restorable with
// Restore (checkpoint support).
type AdamState struct {
	Step int
	M, V [][]float32
}

// Snapshot deep-copies the optimizer state.
func (a *Adam) Snapshot() AdamState {
	st := AdamState{
		Step: a.step,
		M:    make([][]float32, len(a.params)),
		V:    make([][]float32, len(a.params)),
	}
	for i, p := range a.params {
		st.M[i] = append([]float32(nil), p.m...)
		st.V[i] = append([]float32(nil), p.v...)
	}
	return st
}

// Restore rewinds the optimizer to a snapshot taken over the same
// parameter set (shapes must match).
func (a *Adam) Restore(st AdamState) error {
	if len(st.M) != len(a.params) || len(st.V) != len(a.params) {
		return fmt.Errorf("tensor: Adam.Restore: snapshot has %d/%d moment sets, optimizer has %d params",
			len(st.M), len(st.V), len(a.params))
	}
	for i, p := range a.params {
		if len(st.M[i]) != len(p.m) || len(st.V[i]) != len(p.v) {
			return fmt.Errorf("tensor: Adam.Restore: param %d moment size mismatch", i)
		}
	}
	a.step = st.Step
	for i, p := range a.params {
		copy(p.m, st.M[i])
		copy(p.v, st.V[i])
	}
	return nil
}
