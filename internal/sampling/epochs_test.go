package sampling

import (
	"bytes"
	"encoding/gob"
	"reflect"
	"testing"

	"gnnlab/internal/rng"
)

func TestPlanEpochsShapeAndDeterminism(t *testing.T) {
	trainSet := make([]int32, 37)
	for i := range trainSet {
		trainSet[i] = int32(i)
	}
	cells := PlanEpochs(trainSet, 10, 3, 7)

	perEpoch := NumBatches(len(trainSet), 10)
	if len(cells) != 3*perEpoch {
		t.Fatalf("got %d cells, want %d", len(cells), 3*perEpoch)
	}
	i := 0
	for e := 0; e < 3; e++ {
		seen := 0
		for b := 0; b < perEpoch; b++ {
			c := cells[i]
			if c.Epoch != e || c.Batch != b {
				t.Fatalf("cell %d = (%d,%d), want (%d,%d)", i, c.Epoch, c.Batch, e, b)
			}
			if c.R == nil {
				t.Fatalf("cell %d has nil RNG", i)
			}
			seen += len(c.Seeds)
			i++
		}
		if seen != len(trainSet) {
			t.Errorf("epoch %d covers %d seeds, want %d", e, seen, len(trainSet))
		}
	}

	again := PlanEpochs(trainSet, 10, 3, 7)
	for i := range cells {
		if !reflect.DeepEqual(cells[i].Seeds, again[i].Seeds) {
			t.Fatalf("cell %d seeds differ across identical plans", i)
		}
	}

	other := PlanEpochs(trainSet, 10, 3, 8)
	same := true
	for i := range cells {
		if !reflect.DeepEqual(cells[i].Seeds, other[i].Seeds) {
			same = false
			break
		}
	}
	if same {
		t.Error("different seeds produced identical epoch plans")
	}
}

// Fingerprint must separate everything that changes the sampled stream —
// Name alone does not (it drops fanouts).
func TestFingerprintDistinguishesParameters(t *testing.T) {
	prints := []string{
		Fingerprint(NewKHop([]int{25, 10}, FisherYates)),
		Fingerprint(NewKHop([]int{25, 10}, Reservoir)),
		Fingerprint(NewKHop([]int{5, 5}, FisherYates)),
		Fingerprint(NewKHop([]int{5, 5, 5}, FisherYates)),
		Fingerprint(NewWeightedKHop([]int{25, 10})),
		Fingerprint(NewRandomWalk(2, 10, 3, 5)),
		Fingerprint(NewRandomWalk(2, 10, 4, 5)),
	}
	seen := make(map[string]int)
	for i, p := range prints {
		if p == "" {
			t.Fatalf("fingerprint %d is empty", i)
		}
		if j, dup := seen[p]; dup {
			t.Errorf("fingerprints %d and %d collide: %q", j, i, p)
		}
		seen[p] = i
	}

	// Same parameters, distinct instances: identical fingerprint.
	a := Fingerprint(NewKHop([]int{25, 10}, FisherYates))
	b := Fingerprint(NewKHop([]int{25, 10}, FisherYates))
	if a != b {
		t.Errorf("equal algorithms fingerprint differently: %q vs %q", a, b)
	}
}

// noClone hides the wrapped algorithm's Clone: a user-defined sampler
// that hands out no per-worker instances.
type noClone struct{ Algorithm }

// TestReplayEpochsNonClonerRunsSerially: an algorithm without Clone has one
// arena, so ReplayEpochs must not share it across workers. The replay at
// workers 4 equals workers 1 cell for cell, and is race-free under -race.
func TestReplayEpochsNonClonerRunsSerially(t *testing.T) {
	g := testGraph(31, 600, 8, 2)
	trainSet := seeds(240, 600, rng.New(32))
	replay := func(workers int) [][]byte {
		cells := PlanEpochs(trainSet, 6, 2, 33) // cells' RNGs advance as they sample
		out := make([][]byte, len(cells))
		alg := noClone{NewKHop([]int{6, 4}, FisherYates)}
		ReplayEpochs(g, alg, cells, workers, func(_ int, c EpochCell, a Algorithm) {
			var buf bytes.Buffer
			if err := gob.NewEncoder(&buf).Encode(a.Sample(g, c.Seeds, c.R)); err != nil {
				panic(err)
			}
			out[c.Epoch*NumBatches(len(trainSet), 6)+c.Batch] = buf.Bytes()
		})
		return out
	}
	want, got := replay(1), replay(4)
	for i := range want {
		if !bytes.Equal(want[i], got[i]) {
			t.Fatalf("cell %d: workers 4 sampled differently from workers 1", i)
		}
	}
}
