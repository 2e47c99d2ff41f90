package cache

import (
	"reflect"
	"testing"

	"gnnlab/internal/rng"
	"gnnlab/internal/sampling"
)

// Rank is the one owner of the policy → hotness mapping. Each policy's
// ranking is pinned against the primitive it wraps, seed derivation
// included, so a change to either shows up here.
func TestRankMatchesPolicyPrimitives(t *testing.T) {
	g := skewedGraph(21, 300, 3000)
	ts := trainSet(300, 40, 22)
	alg := sampling.NewKHop([]int{4, 3}, sampling.FisherYates)
	spec := RankSpec{Graph: g, Alg: alg, TrainSet: ts, BatchSize: 10, Seed: 5, PreSCK: 2, Epochs: 3}
	presc := PreSC(g, alg, ts, 10, 2, 5^0x12345)
	want := map[PolicyKind]Ranking{
		PolicyRandom: {Hotness: RandomHotness(300, rng.New(5^0x5EED))},
		PolicyDegree: {Hotness: DegreeHotness(g)},
		PolicyPreSC: {Hotness: presc.Hotness, PreSample: &sampling.Sample{
			SampledEdges: presc.SampledEdges, ScannedEdges: presc.ScannedEdges}},
		PolicyOptimal: {Hotness: CollectFootprint(g, alg, ts, 10, 3, 5).OptimalHotness()},
	}
	for p, w := range want {
		spec.Policy = p
		got, err := Rank(spec)
		if err != nil {
			t.Fatalf("%v: %v", p, err)
		}
		if !reflect.DeepEqual(got, w) {
			t.Errorf("%v: Rank differs from its primitive", p)
		}
	}
}

// Inputs keeps exactly what a policy reads.
func TestRankSpecInputs(t *testing.T) {
	g := skewedGraph(23, 100, 800)
	alg := sampling.NewKHop([]int{2}, sampling.FisherYates)
	full := RankSpec{Graph: g, Alg: alg, BatchSize: 8, Seed: 9, PreSCK: 2, Epochs: 4}
	cases := map[PolicyKind]RankSpec{
		PolicyRandom:  {Seed: 9},
		PolicyDegree:  {},
		PolicyPreSC:   {Alg: alg, BatchSize: 8, Seed: 9, PreSCK: 2},
		PolicyOptimal: {Alg: alg, BatchSize: 8, Seed: 9, Epochs: 4},
	}
	for p, reads := range cases {
		full.Policy = p
		want := reads
		want.Policy, want.Graph = p, g
		got, err := full.Inputs()
		if err != nil {
			t.Fatalf("%v: %v", p, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%v: Inputs = %+v, want %+v", p, got, want)
		}
	}
}

func TestRankRejectsBadSpecs(t *testing.T) {
	g := skewedGraph(25, 100, 800)
	alg := sampling.NewKHop([]int{2}, sampling.FisherYates)
	ok := RankSpec{Graph: g, Alg: alg, TrainSet: trainSet(100, 10, 26), BatchSize: 4, PreSCK: 1, Epochs: 1}
	bad := map[string]func(*RankSpec){
		"unknown policy":     func(s *RankSpec) { s.Policy = PolicyKind(9) },
		"PreSC without K":    func(s *RankSpec) { s.Policy, s.PreSCK = PolicyPreSC, 0 },
		"PreSC zero batch":   func(s *RankSpec) { s.Policy, s.BatchSize = PolicyPreSC, 0 },
		"PreSC no sampler":   func(s *RankSpec) { s.Policy, s.Alg = PolicyPreSC, nil },
		"Optimal no epochs":  func(s *RankSpec) { s.Policy, s.Epochs = PolicyOptimal, 0 },
		"Optimal zero batch": func(s *RankSpec) { s.Policy, s.BatchSize = PolicyOptimal, -1 },
	}
	for name, mutate := range bad {
		s := ok
		mutate(&s)
		if _, err := Rank(s); err == nil {
			t.Errorf("%s: Rank accepted %+v", name, s)
		}
		if _, err := s.Inputs(); err == nil {
			t.Errorf("%s: Inputs accepted %+v", name, s)
		}
	}
}
