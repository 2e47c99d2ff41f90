package sampling

import (
	"gnnlab/internal/graph"
	"gnnlab/internal/rng"
)

// Batches splits the training set into mini-batches of at most batchSize
// seeds, shuffling first — most GNN models shuffle the training set at the
// beginning of each epoch (§6.2). The returned batches alias one backing
// array.
func Batches(trainSet []int32, batchSize int, r *rng.Rand) [][]int32 {
	if batchSize <= 0 {
		panic("sampling: Batches with non-positive batch size")
	}
	shuffled := make([]int32, len(trainSet))
	copy(shuffled, trainSet)
	if r != nil {
		r.ShuffleInt32(shuffled)
	}
	n := (len(shuffled) + batchSize - 1) / batchSize
	batches := make([][]int32, 0, n)
	for start := 0; start < len(shuffled); start += batchSize {
		end := start + batchSize
		if end > len(shuffled) {
			end = len(shuffled)
		}
		batches = append(batches, shuffled[start:end])
	}
	return batches
}

// NumBatches returns how many mini-batches an epoch comprises.
func NumBatches(trainSetSize, batchSize int) int {
	return (trainSetSize + batchSize - 1) / batchSize
}

// The paper's three GNN workloads and their sampling setups (§7.1):
// GCN uses 3-hop random neighborhood sampling with fanouts 15,10,5;
// GraphSAGE uses 2-hop with fanouts 25,10; PinSAGE uses 3 layers of random
// walks, 5 neighbors from 4 paths of length 3.

// ForGCN returns the GCN sampler (3-hop, fanouts 15/10/5).
func ForGCN() *KHop { return NewKHop([]int{15, 10, 5}, FisherYates) }

// ForGraphSAGE returns the GraphSAGE sampler (2-hop, fanouts 25/10).
func ForGraphSAGE() *KHop { return NewKHop([]int{25, 10}, FisherYates) }

// ForPinSAGE returns the PinSAGE sampler (3 layers, 5 of 4×3 walks).
func ForPinSAGE() *RandomWalk { return NewRandomWalk(3, 4, 3, 5) }

// ForGCNWeighted returns the 3-hop weighted variant evaluated in §7.4.
func ForGCNWeighted() *WeightedKHop { return NewWeightedKHop([]int{15, 10, 5}) }

// Cloner is implemented by algorithms that can hand out per-executor
// instances. All built-in algorithms implement it; ReplayEpochs runs an
// algorithm that does not on a single worker.
type Cloner interface {
	Clone() Algorithm
}

// Preparer is implemented by algorithms with per-graph preprocessing —
// WeightedKHop's CDF/alias tables, ClusterGCN's partition. Prepare builds
// the structures for g eagerly so that concurrent executors cloned from
// the same sampler hit read-only state instead of racing on a build lock.
// Prepare must be idempotent and safe to call concurrently.
type Preparer interface {
	Prepare(g graph.View)
}

// Prepare eagerly runs alg's per-graph preprocessing, if any. The parallel
// measurement engine calls this once on the coordinating goroutine before
// fanning Sample calls across workers.
func Prepare(alg Algorithm, g graph.View) {
	if p, ok := alg.(Preparer); ok {
		p.Prepare(g)
	}
}
