package main

import (
	"math"
	"sort"
)

// tailGrid is the set of percentiles a tail metric may report, highest
// last. A percentile is supported by a sample only when at least
// minBeyond observations lie strictly beyond its nearest-rank position,
// so a p99 is never one outlier's reading.
var tailGrid = []float64{50, 75, 90, 95, 99}

const minBeyond = 10

// summary is what every timing metric is reported from: the sample
// count, the nearest-rank median, and the highest supported tail.
type summary struct {
	N       int
	P50     float64
	TailPct float64 // the percentile Tail was read at
	Tail    float64
	Max     float64
}

// percentile returns the nearest-rank p-th percentile (0 < p <= 100) of
// an ascending slice: the smallest element with at least p% of the
// sample at or below it. Empty input reads 0.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(math.Ceil(p / 100 * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(sorted) {
		rank = len(sorted)
	}
	return sorted[rank-1]
}

// supportedTail returns the highest percentile of tailGrid, no higher
// than want, that a sample of n observations supports (at least minBeyond
// beyond it). Small samples support nothing past the median, which is
// then the tail too. A workload whose sample count wobbles around a
// support threshold passes a want below it, so the percentile it reports
// does not change from run to run.
func supportedTail(n int, want float64) float64 {
	best := tailGrid[0]
	for _, p := range tailGrid {
		rank := int(math.Ceil(p / 100 * float64(n)))
		if p <= want && n-rank >= minBeyond {
			best = p
		}
	}
	return best
}

// summarize is summarizeAt with the grid's highest percentile wanted.
func summarize(xs []float64) summary { return summarizeAt(xs, tailGrid[len(tailGrid)-1]) }

// summarizeAt sorts a copy of xs and reads the median and the supported
// tail no higher than want.
func summarizeAt(xs []float64, want float64) summary {
	s := summary{N: len(xs)}
	if len(xs) == 0 {
		return s
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	s.P50 = percentile(sorted, 50)
	s.TailPct = supportedTail(len(sorted), want)
	s.Tail = percentile(sorted, s.TailPct)
	s.Max = sorted[len(sorted)-1]
	return s
}

// median is summarize(xs).P50 for callers that need nothing else.
func median(xs []float64) float64 { return summarize(xs).P50 }

// midmean is the interquartile mean: the average of the middle half of
// the sample. It ignores the odd stalled reading as a median does, and,
// unlike a median, moves smoothly when the sample mixes two levels.
func midmean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	lo, hi := len(sorted)/4, len(sorted)-len(sorted)/4
	return sum(sorted[lo:hi]) / float64(hi-lo)
}

// sum adds a slice.
func sum(xs []float64) float64 {
	var t float64
	for _, x := range xs {
		t += x
	}
	return t
}
