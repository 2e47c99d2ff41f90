// Package rng provides small, fast, deterministic random number generators
// used throughout the reproduction. Experiments must be bit-reproducible
// across runs, so every component that needs randomness takes an explicit
// *rng.Rand seeded by the caller instead of relying on global state.
package rng

import (
	"math"

	"gnnlab/internal/par"
)

// Rand is a xoshiro256** generator seeded via splitmix64. It is not safe
// for concurrent use; give each goroutine its own instance (Split).
type Rand struct {
	s [4]uint64
}

// New returns a generator seeded deterministically from seed.
func New(seed uint64) *Rand {
	r := &Rand{}
	sm := seed
	for i := range r.s {
		sm, r.s[i] = splitmix64(sm)
	}
	// xoshiro must not be seeded with all zeros.
	if r.s[0]|r.s[1]|r.s[2]|r.s[3] == 0 {
		r.s[0] = 0x9e3779b97f4a7c15
	}
	return r
}

// splitmix64 advances the splitmix state and returns (newState, output).
func splitmix64(x uint64) (uint64, uint64) {
	x += 0x9e3779b97f4a7c15
	z := x
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return x, z ^ (z >> 31)
}

// State is an opaque snapshot of a generator's position in its stream,
// restorable with SetState (checkpoint/restore support).
type State [4]uint64

// State snapshots the generator.
func (r *Rand) State() State { return r.s }

// SetState rewinds the generator to a snapshot taken with State.
func (r *Rand) SetState(s State) { r.s = s }

// Split derives an independent generator from r, keyed by id. Two Splits
// with distinct ids produce decorrelated streams.
func (r *Rand) Split(id uint64) *Rand {
	return New(r.Uint64() ^ (id+1)*0x9e3779b97f4a7c15)
}

// SplitN derives n independent generators from r, keyed by their index.
// This is the (epoch, batch) determinism convention of the parallel
// measurement engine: calling SplitN on an epoch-keyed generator yields one
// decorrelated stream per mini-batch, independent of how the batches are
// later assigned to workers. The derivation itself draws from r
// sequentially, so it must run on the coordinating goroutine before any
// fan-out.
func (r *Rand) SplitN(n int) []*Rand {
	out := make([]*Rand, n)
	for i := range out {
		out[i] = r.Split(uint64(i))
	}
	return out
}

func rotl(x uint64, k uint) uint64 { return (x << k) | (x >> (64 - k)) }

// Uint64 returns the next 64 uniformly random bits.
func (r *Rand) Uint64() uint64 {
	s := &r.s
	result := rotl(s[1]*5, 7) * 9
	t := s[1] << 17
	s[2] ^= s[0]
	s[3] ^= s[1]
	s[1] ^= s[2]
	s[0] ^= s[3]
	s[2] ^= t
	s[3] = rotl(s[3], 45)
	return result
}

// Intn returns a uniform integer in [0, n). It panics if n <= 0.
func (r *Rand) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn with non-positive n")
	}
	return int(r.Uint64n(uint64(n)))
}

// Uint64n returns a uniform integer in [0, n) using Lemire's multiply-shift
// rejection method. It panics if n == 0.
func (r *Rand) Uint64n(n uint64) uint64 {
	if n == 0 {
		panic("rng: Uint64n with zero n")
	}
	// Fast path for powers of two.
	if n&(n-1) == 0 {
		return r.Uint64() & (n - 1)
	}
	// 128-bit multiply rejection sampling.
	for {
		v := r.Uint64()
		hi, lo := mul64(v, n)
		if lo >= n || lo >= (-n)%n {
			return hi
		}
	}
}

// mul64 returns the 128-bit product of x and y as (hi, lo).
func mul64(x, y uint64) (hi, lo uint64) {
	const mask = 1<<32 - 1
	x0, x1 := x&mask, x>>32
	y0, y1 := y&mask, y>>32
	w0 := x0 * y0
	t := x1*y0 + w0>>32
	w1 := t&mask + x0*y1
	hi = x1*y1 + t>>32 + w1>>32
	lo = x * y
	return hi, lo
}

// Float64 returns a uniform float64 in [0, 1).
func (r *Rand) Float64() float64 { return unitFloat(r.Uint64()) }

// unitFloat maps 64 random bits to a uniform float64 in [0, 1).
func unitFloat(x uint64) float64 { return float64(x>>11) / (1 << 53) }

// NormFloat64 returns a standard normal variate (Marsaglia polar method).
func (r *Rand) NormFloat64() float64 {
	for {
		u := 2*r.Float64() - 1
		v := 2*r.Float64() - 1
		s := u*u + v*v
		if s > 0 && s < 1 {
			return u * math.Sqrt(-2*math.Log(s)/s)
		}
	}
}

// ExpFloat64 returns an exponential variate with rate 1.
func (r *Rand) ExpFloat64() float64 {
	for {
		u := r.Float64()
		if u > 0 {
			return -math.Log(u)
		}
	}
}

// Perm returns a random permutation of [0, n) as a fresh slice.
func (r *Rand) Perm(n int) []int32 {
	p := make([]int32, n)
	for i := range p {
		p[i] = int32(i)
	}
	r.ShuffleInt32(p)
	return p
}

// ShuffleInt32 performs an in-place Fisher–Yates shuffle.
func (r *Rand) ShuffleInt32(p []int32) {
	for i := len(p) - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
}

// Zipf samples from a bounded Zipf distribution over [0, n) with exponent s,
// using rejection-inversion. NewZipf does the per-(n, s) work once; a Zipf
// is immutable after it and safe to share between goroutines.
type Zipf struct {
	n         uint64
	s         float64
	oneMinusS float64
	hx0       float64
	hxm       float64
	// acc[k-1] is the acceptance bound hIntegral(k+0.5) − h(k) of rank k.
	// It depends on k alone, so the table holds the very bits the formula
	// would give at draw time.
	acc []float64
}

// parallelMin is the row count from which NewZipf's table and DrawN's
// trials post to the row pool: below it a post costs more than it saves.
const parallelMin = 1 << 12

// NewZipf prepares a Zipf sampler over [0, n) with exponent s > 0, s != 1
// handled as well as s == 1 via a small epsilon shift. It computes the
// acceptance table (8n bytes) on the row pool.
func NewZipf(n uint64, s float64) *Zipf {
	if n == 0 {
		panic("rng: NewZipf with zero n")
	}
	if s <= 0 {
		panic("rng: NewZipf with non-positive exponent")
	}
	if s == 1 {
		s = 1 + 1e-9
	}
	z := &Zipf{n: n, s: s, oneMinusS: 1 - s, acc: make([]float64, n)}
	z.hx0 = z.hIntegral(0.5) - 1
	z.hxm = z.hIntegral(float64(n) + 0.5)
	runRows(accJob{z}, len(z.acc))
	return z
}

// accJob fills rows of a Zipf's acceptance table.
type accJob struct{ z *Zipf }

func (j accJob) Rows(lo, hi int) {
	for i := lo; i < hi; i++ {
		k := float64(i + 1)
		j.z.acc[i] = j.z.hIntegral(k+0.5) - j.z.h(k)
	}
}

// runRows computes job over [0, n) on the row pool from parallelMin rows up,
// and inline below that.
func runRows(job par.Job, n int) {
	if n >= parallelMin {
		par.Run(job, n)
	} else {
		job.Rows(0, n)
	}
}

func (z *Zipf) hIntegral(x float64) float64 {
	logX := math.Log(x)
	return helper2(z.oneMinusS*logX) * logX
}

func (z *Zipf) h(x float64) float64 { return math.Exp(-z.s * math.Log(x)) }

func (z *Zipf) hIntegralInverse(x float64) float64 {
	t := x * z.oneMinusS
	if t < -1 {
		t = -1
	}
	return math.Exp(helper1(t) * x)
}

// helper1 computes log1p(x)/x with care near zero.
func helper1(x float64) float64 {
	if math.Abs(x) > 1e-8 {
		return math.Log1p(x) / x
	}
	return 1 - x/2 + x*x/3
}

// helper2 computes expm1(x)/x with care near zero.
func helper2(x float64) float64 {
	if math.Abs(x) > 1e-8 {
		return math.Expm1(x) / x
	}
	return 1 + x/2 + x*x/6
}

// trial is one rejection-inversion trial on the uniform f: the rank it
// proposes and whether it is accepted. Its outcome depends on f alone.
func (z *Zipf) trial(f float64) (uint64, bool) {
	u := z.hxm + f*(z.hx0-z.hxm)
	x := z.hIntegralInverse(u)
	k := math.Floor(x + 0.5)
	if k < 1 {
		k = 1
	} else if k > float64(z.n) {
		k = float64(z.n)
	} else if k != k {
		return 0, false // x is NaN, and no comparison with it holds
	}
	return uint64(k) - 1, k-x <= z.hx0 || u >= z.acc[int(k)-1]
}

// Draw returns a Zipf-distributed value in [0, n); rank 0 is the most
// probable.
func (z *Zipf) Draw(r *Rand) uint64 {
	for {
		if k, ok := z.trial(r.Float64()); ok {
			return k
		}
	}
}

// rejected marks a rejected trial in DrawN's buffer; no rank reaches it.
const rejected = math.MaxUint64

// DrawN sets out to the values of len(out) successive Draw(r) calls and
// leaves r where those calls would. Each round takes as many of r's
// uniforms as values are still missing, runs their trials on the row pool
// and keeps the accepted ones in stream order. That is exact because a
// trial's outcome depends only on its uniform, and because a round never
// takes more uniforms than the serial calls would: each still-missing
// value needs at least one.
func (z *Zipf) DrawN(r *Rand, out []uint64) {
	for filled := 0; filled < len(out); {
		round := out[filled:]
		for i := range round {
			round[i] = r.Uint64()
		}
		runRows(trialJob{z, round}, len(round))
		for _, k := range round {
			if k != rejected {
				out[filled] = k
				filled++
			}
		}
	}
}

// trialJob turns rows of raw stream words into trial outcomes in place:
// the accepted rank, or rejected.
type trialJob struct {
	z   *Zipf
	buf []uint64
}

func (j trialJob) Rows(lo, hi int) {
	for i := lo; i < hi; i++ {
		k, ok := j.z.trial(unitFloat(j.buf[i]))
		if !ok {
			k = rejected
		}
		j.buf[i] = k
	}
}
