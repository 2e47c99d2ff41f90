package main

import "testing"

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(n - i) // descending: summarize must sort
	}
	return xs
}

func TestSummarizeNearestRank(t *testing.T) {
	cases := []struct {
		name    string
		xs      []float64
		want    float64 // tail percentile asked for
		n       int
		p50     float64
		tailPct float64
		tail    float64
		max     float64
	}{
		{"empty", nil, 99, 0, 0, 0, 0, 0},
		{"one", []float64{7}, 99, 1, 7, 50, 7, 7},
		{"even count takes the lower middle", []float64{4, 1, 3, 2}, 99, 4, 2, 50, 2, 4},
		{"19 samples support only the median", seq(19), 99, 19, 10, 50, 10, 19},
		{"20 samples put ten beyond the median", seq(20), 99, 20, 10, 50, 10, 20},
		{"40 samples reach p75", seq(40), 99, 40, 20, 75, 30, 40},
		{"100 samples reach p90, not p95", seq(100), 99, 100, 50, 90, 90, 100},
		{"200 samples reach p95", seq(200), 99, 200, 100, 95, 190, 200},
		{"999 samples stop short of p99", seq(999), 99, 999, 500, 95, 950, 999},
		{"1000 samples reach p99", seq(1000), 99, 1000, 500, 99, 990, 1000},
		{"a lower want caps the tail", seq(1000), 75, 1000, 500, 75, 750, 1000},
		{"a want the sample cannot support falls back", seq(30), 75, 30, 15, 50, 15, 30},
	}
	for _, c := range cases {
		s := summarizeAt(c.xs, c.want)
		if s.N != c.n || s.P50 != c.p50 || s.Tail != c.tail || s.Max != c.max || (c.n > 0 && s.TailPct != c.tailPct) {
			t.Errorf("%s: got n=%d p50=%v tail=p%v %v max=%v, want n=%d p50=%v tail=p%v %v max=%v",
				c.name, s.N, s.P50, s.TailPct, s.Tail, s.Max, c.n, c.p50, c.tailPct, c.tail, c.max)
		}
	}
}

func TestPercentileBounds(t *testing.T) {
	xs := []float64{1, 2, 3}
	for _, c := range []struct{ p, want float64 }{{0.001, 1}, {33.3, 1}, {33.4, 2}, {66.7, 3}, {100, 3}} {
		if got := percentile(xs, c.p); got != c.want {
			t.Errorf("percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
}

func TestSummarizeLeavesInputUnsorted(t *testing.T) {
	xs := []float64{3, 1, 2}
	summarize(xs)
	if xs[0] != 3 || xs[1] != 1 || xs[2] != 2 {
		t.Fatalf("summarize reordered its input: %v", xs)
	}
}
