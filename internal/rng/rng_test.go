package rng

import (
	"math"
	"testing"
	"testing/quick"
)

func TestDeterminism(t *testing.T) {
	a, b := New(123), New(123)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("streams diverged at step %d", i)
		}
	}
}

func TestDifferentSeedsDiffer(t *testing.T) {
	a, b := New(1), New(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Errorf("%d/100 identical outputs across seeds", same)
	}
}

func TestZeroSeedUsable(t *testing.T) {
	r := New(0)
	if r.Uint64() == 0 && r.Uint64() == 0 && r.Uint64() == 0 {
		t.Error("zero seed produced a stuck stream")
	}
}

func TestSplitDecorrelated(t *testing.T) {
	r := New(7)
	a := r.Split(1)
	b := r.Split(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Errorf("%d/100 identical outputs across splits", same)
	}
}

func TestIntnBounds(t *testing.T) {
	r := New(99)
	if err := quick.Check(func(nRaw uint16) bool {
		n := int(nRaw%1000) + 1
		v := r.Intn(n)
		return v >= 0 && v < n
	}, nil); err != nil {
		t.Error(err)
	}
}

func TestIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Intn(0) did not panic")
		}
	}()
	New(1).Intn(0)
}

func TestUint64nUniform(t *testing.T) {
	r := New(4242)
	const n, draws = 10, 100000
	counts := make([]int, n)
	for i := 0; i < draws; i++ {
		counts[r.Uint64n(n)]++
	}
	expect := float64(draws) / n
	var chi2 float64
	for _, c := range counts {
		d := float64(c) - expect
		chi2 += d * d / expect
	}
	// 9 degrees of freedom: chi2 > 27.9 is p < 0.001.
	if chi2 > 27.9 {
		t.Errorf("chi-square %.1f too high; counts %v", chi2, counts)
	}
}

func TestUint64nPowerOfTwo(t *testing.T) {
	r := New(5)
	for i := 0; i < 1000; i++ {
		if v := r.Uint64n(64); v >= 64 {
			t.Fatalf("Uint64n(64) = %d", v)
		}
	}
}

func TestFloat64Range(t *testing.T) {
	r := New(6)
	for i := 0; i < 10000; i++ {
		v := r.Float64()
		if v < 0 || v >= 1 {
			t.Fatalf("Float64() = %v out of [0,1)", v)
		}
	}
}

func TestNormFloat64Moments(t *testing.T) {
	r := New(8)
	const n = 200000
	var sum, sum2 float64
	for i := 0; i < n; i++ {
		v := r.NormFloat64()
		sum += v
		sum2 += v * v
	}
	mean := sum / n
	variance := sum2/n - mean*mean
	if math.Abs(mean) > 0.02 {
		t.Errorf("mean %.4f, want ~0", mean)
	}
	if math.Abs(variance-1) > 0.03 {
		t.Errorf("variance %.4f, want ~1", variance)
	}
}

func TestExpFloat64Mean(t *testing.T) {
	r := New(9)
	const n = 200000
	var sum float64
	for i := 0; i < n; i++ {
		v := r.ExpFloat64()
		if v < 0 {
			t.Fatalf("negative exponential %v", v)
		}
		sum += v
	}
	if mean := sum / n; math.Abs(mean-1) > 0.02 {
		t.Errorf("mean %.4f, want ~1", mean)
	}
}

func TestPermIsPermutation(t *testing.T) {
	r := New(10)
	if err := quick.Check(func(nRaw uint8) bool {
		n := int(nRaw%200) + 1
		p := r.Perm(n)
		seen := make([]bool, n)
		for _, v := range p {
			if v < 0 || int(v) >= n || seen[v] {
				return false
			}
			seen[v] = true
		}
		return true
	}, nil); err != nil {
		t.Error(err)
	}
}

func TestShuffleKeepsMultiset(t *testing.T) {
	r := New(11)
	orig := []int32{5, 5, 1, 9, 3, 3, 3}
	s := append([]int32(nil), orig...)
	r.ShuffleInt32(s)
	count := map[int32]int{}
	for _, v := range orig {
		count[v]++
	}
	for _, v := range s {
		count[v]--
	}
	for k, c := range count {
		if c != 0 {
			t.Errorf("value %d count delta %d after shuffle", k, c)
		}
	}
}

func TestZipfBoundsAndSkew(t *testing.T) {
	r := New(12)
	z := NewZipf(1000, 1.1)
	const draws = 100000
	counts := make([]int, 1000)
	for i := 0; i < draws; i++ {
		v := z.Draw(r)
		if v >= 1000 {
			t.Fatalf("Zipf draw %d out of range", v)
		}
		counts[v]++
	}
	// Rank 0 must be drawn far more than rank 500.
	if counts[0] < 10*counts[500]+1 {
		t.Errorf("insufficient skew: rank0 %d, rank500 %d", counts[0], counts[500])
	}
	// Monotone-ish decrease on average across decades.
	if counts[0] < counts[9] {
		t.Errorf("rank0 %d < rank9 %d", counts[0], counts[9])
	}
}

func TestZipfPanics(t *testing.T) {
	for _, fn := range []func(){
		func() { NewZipf(0, 1.1) },
		func() { NewZipf(10, 0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("NewZipf accepted invalid parameters")
				}
			}()
			fn()
		}()
	}
}

// refDraw is the rejection-inversion draw as it was before the acceptance
// table: it evaluates hIntegral(k+0.5) − h(k) on every trial. Draw and
// DrawN must return its values bit for bit.
func refDraw(z *Zipf, r *Rand) uint64 {
	for {
		u := z.hxm + r.Float64()*(z.hx0-z.hxm)
		x := z.hIntegralInverse(u)
		k := math.Floor(x + 0.5)
		if k < 1 {
			k = 1
		} else if k > float64(z.n) {
			k = float64(z.n)
		}
		if k-x <= z.hx0 || u >= z.hIntegral(k+0.5)-z.h(k) {
			return uint64(k) - 1
		}
	}
}

// FuzzZipfDraw: for any (n, s, seed, count), the table-driven Draw, the
// batched DrawN and the reference formula give the same count values from
// streams seeded alike, and leave the streams in the same state. n is
// folded into [1, 2^16], count into [0, 3·parallelMin) and s into (0, 8]:
// from about s = 20 up nearly every trial is rejected and a draw does not
// finish. The seeds cover n = 1, s < 1, s = 1, and tables and rounds both
// below parallelMin and on the row pool.
func FuzzZipfDraw(f *testing.F) {
	f.Add(uint64(1), 1.2, uint64(1), uint16(10))
	f.Add(uint64(10), 0.5, uint64(2), uint16(5000))
	f.Add(uint64(1000), 1.0, uint64(3), uint16(100))
	f.Add(uint64(1<<13), 0.7, uint64(4), uint16(3*parallelMin-1))
	f.Add(uint64(1<<13), 1.3, uint64(5), uint16(parallelMin))
	f.Add(uint64(1<<16), 0.95, uint64(6), uint16(2*parallelMin))
	f.Fuzz(func(t *testing.T, n uint64, s float64, seed uint64, count uint16) {
		n = 1 + (n-1)%(1<<16)
		if math.IsNaN(s) || math.IsInf(s, 0) {
			t.Skip()
		}
		if !(s > 0 && s <= 8) {
			s = 0.05 + math.Mod(math.Abs(s), 4)
		}
		z := NewZipf(n, s)
		ref, serial, batched := New(seed), New(seed), New(seed)
		out := make([]uint64, int(count)%(3*parallelMin))
		z.DrawN(batched, out)
		for i := range out {
			want := refDraw(z, ref)
			if got := z.Draw(serial); got != want {
				t.Fatalf("NewZipf(%d, %v) seed %d: Draw %d = %d, reference %d", n, s, seed, i, got, want)
			}
			if out[i] != want {
				t.Fatalf("NewZipf(%d, %v) seed %d: DrawN value %d = %d, reference %d", n, s, seed, i, out[i], want)
			}
		}
		if serial.State() != ref.State() || batched.State() != ref.State() {
			t.Fatalf("NewZipf(%d, %v) seed %d: stream states differ after %d draws", n, s, seed, len(out))
		}
	})
}

func TestSplitNMatchesSequentialSplits(t *testing.T) {
	a := New(77)
	b := New(77)
	got := a.SplitN(8)
	for i := 0; i < 8; i++ {
		want := b.Split(uint64(i))
		if got[i].Uint64() != want.Uint64() || got[i].Uint64() != want.Uint64() {
			t.Fatalf("SplitN stream %d diverges from sequential Split", i)
		}
	}
	// Distinct streams must not collide on their first draws.
	seen := map[uint64]bool{}
	for _, r := range New(77).SplitN(64) {
		v := r.Uint64()
		if seen[v] {
			t.Fatal("SplitN streams collide")
		}
		seen[v] = true
	}
}

func BenchmarkUint64(b *testing.B) {
	r := New(1)
	for i := 0; i < b.N; i++ {
		_ = r.Uint64()
	}
}

func BenchmarkZipfDraw(b *testing.B) {
	r := New(1)
	z := NewZipf(1<<20, 1.2)
	for i := 0; i < b.N; i++ {
		_ = z.Draw(r)
	}
}

// BenchmarkZipfDrawN is BenchmarkZipfDraw through the batched path, in
// rounds of 64Ki values.
func BenchmarkZipfDrawN(b *testing.B) {
	r := New(1)
	z := NewZipf(1<<20, 1.2)
	out := make([]uint64, 1<<16)
	for i := 0; i < b.N; i += len(out) {
		z.DrawN(r, out[:min(len(out), b.N-i)])
	}
}
