package sampling

import (
	"testing"

	"gnnlab/internal/graph"
	"gnnlab/internal/rng"
)

func TestClusterGCNSampleValid(t *testing.T) {
	g := testGraph(30, 400, 8, 1)
	alg := NewClusterGCN(8, 5)
	r := rng.New(31)
	s := alg.Sample(g, seeds(10, 400, r), r)
	if err := validate(s, g); err != nil {
		t.Fatal(err)
	}
	if len(s.Layers) != 1 || alg.NumHops() != 1 {
		t.Errorf("cluster sample has %d layers", len(s.Layers))
	}
	// Every member must belong to one of the seeds' clusters.
	assign := graph.PartitionAssignment(graph.Partition(g, 8, 5), 400)
	want := map[int32]bool{}
	for _, seed := range s.Seeds {
		want[assign[seed]] = true
	}
	for _, v := range s.Input {
		if !want[assign[v]] {
			t.Fatalf("member %d from cluster %d not among seed clusters", v, assign[v])
		}
	}
}

func TestInducedEdgesStayInside(t *testing.T) {
	g := testGraph(32, 300, 6, 1)
	r := rng.New(33)
	for _, alg := range []Algorithm{
		NewClusterGCN(6, 7),
		NewSAINTNode(60),
		NewSAINTEdge(100),
	} {
		s := alg.Sample(g, seeds(8, 300, r), r)
		if err := validate(s, g); err != nil {
			t.Fatalf("%s: %v", alg.Name(), err)
		}
		inSet := map[int32]bool{}
		for _, v := range s.Input {
			inSet[v] = true
		}
		for local := range s.Layers[0].NumDst {
			dst := s.Input[local]
			want := 0 // dst's graph neighbors inside the member set
			for _, nbr := range g.Adj(dst) {
				if inSet[nbr] {
					want++
				}
			}
			row := s.AdjNbr[s.AdjStart[local]:s.AdjStart[local+1]]
			if len(row) != want {
				t.Fatalf("%s: member %d has %d induced neighbors, want %d", alg.Name(), dst, len(row), want)
			}
			for _, srcLocal := range row {
				// The edge must exist in the graph (dst -> src direction:
				// src is dst's sampled neighbor).
				src := s.Input[srcLocal]
				found := false
				for _, nbr := range g.Adj(dst) {
					if nbr == src {
						found = true
						break
					}
				}
				if !found {
					t.Fatalf("%s: fabricated edge %d->%d", alg.Name(), dst, src)
				}
			}
		}
	}
}

func TestSAINTNodeBudget(t *testing.T) {
	g := testGraph(34, 500, 6, 1)
	r := rng.New(35)
	sd := seeds(10, 500, r)
	s := NewSAINTNode(50).Sample(g, sd, r)
	if got := len(s.Input); got != 60 {
		t.Errorf("member count %d, want seeds+budget = 60", got)
	}
}

func TestSAINTEdgeIncludesSeeds(t *testing.T) {
	g := testGraph(36, 200, 6, 1)
	r := rng.New(37)
	sd := seeds(5, 200, r)
	s := NewSAINTEdge(40).Sample(g, sd, r)
	for i, seed := range sd {
		if s.Input[i] != seed {
			t.Fatalf("seed %d missing from member set", seed)
		}
	}
}

func TestEdgeSourceBinarySearch(t *testing.T) {
	g, err := graph.FromAdjacency([][]int32{{1, 2}, {}, {0}, {1}})
	if err != nil {
		t.Fatal(err)
	}
	wantSources := []int32{0, 0, 2, 3}
	for idx, want := range wantSources {
		if got := edgeSource(g.RowPtr, int64(idx)); got != want {
			t.Errorf("edgeSource(%d) = %d, want %d", idx, got, want)
		}
	}
}

func TestSubgraphFootprintMoreUniform(t *testing.T) {
	// The §8 rationale: induced-subgraph samples touch member vertices
	// once each, so per-batch extraction counts lack the hub
	// concentration of k-hop samples. Verify the max-visit/mean-visit
	// ratio is lower for ClusterGCN on a skewed graph.
	r := rng.New(40)
	z := rng.NewZipf(600, 1.2)
	b := graph.NewBuilder(600, false)
	perm := r.Perm(600)
	for i := 0; i < 9000; i++ {
		src := int32(r.Intn(600))
		dst := perm[z.Draw(r)]
		if src != dst {
			b.AddEdge(src, dst, 0)
		}
	}
	g, err := b.Build(false)
	if err != nil {
		t.Fatal(err)
	}
	concentration := func(alg Algorithm) float64 {
		visits := make([]int64, 600)
		rr := rng.New(41)
		for trial := 0; trial < 20; trial++ {
			s := alg.Sample(g, seeds(10, 600, rr), rr)
			for _, v := range s.Input {
				visits[v]++
			}
		}
		var max, sum int64
		n := 0
		for _, c := range visits {
			if c > max {
				max = c
			}
			if c > 0 {
				sum += c
				n++
			}
		}
		return float64(max) * float64(n) / float64(sum)
	}
	khop := concentration(NewKHop([]int{5, 5}, FisherYates))
	cluster := concentration(NewClusterGCN(10, 42))
	if cluster >= khop {
		t.Errorf("cluster footprint concentration %.1f not below k-hop %.1f", cluster, khop)
	}
}
