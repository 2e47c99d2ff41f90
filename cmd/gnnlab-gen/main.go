// Command gnnlab-gen generates a synthetic dataset preset and writes its
// graph to disk in the binary CSR format, printing the Table 3-style
// inventory line. Useful for inspecting the generators and for feeding the
// disk→DRAM preprocessing measurements with real files.
//
// Usage:
//
//	gnnlab-gen [-preset PA] [-scale N] [-packed] [-out graph.bin] [-stats]
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"slices"

	"gnnlab"
	"gnnlab/internal/graph"
)

func main() {
	preset := flag.String("preset", "PA", "dataset preset: PR, TW, PA, UK or CONV")
	scale := flag.Int("scale", 1, "scale divisor")
	out := flag.String("out", "", "write the complete dataset (binary) to this path")
	stats := flag.Bool("stats", false, "print the degree distribution summary")
	packed := flag.Bool("packed", false, "compress the topology to the packed layout (Vol_G and -out reflect the compressed bytes)")
	flag.Parse()

	d, err := gnnlab.LoadDatasetScaled(*preset, *scale)
	if err != nil {
		log.Fatal(err)
	}
	if *packed {
		csrBytes := d.Graph.TopologyBytesUnweighted()
		d = gnnlab.PackDataset(d)
		pBytes := d.Graph.TopologyBytesUnweighted()
		fmt.Printf("packed: %.1f MB -> %.1f MB (%.2fx, %.2f B/edge)\n",
			float64(csrBytes)/(1<<20), float64(pBytes)/(1<<20),
			float64(csrBytes)/float64(pBytes),
			float64(pBytes)/float64(d.Graph.NumEdges()))
	}
	fmt.Printf("%s: %d vertices, %d edges, dim %d, |TS| %d, Vol_G %.1f MB, Vol_F %.1f MB\n",
		d.Name, d.NumVertices(), d.Graph.NumEdges(), d.FeatureDim, len(d.TrainSet),
		float64(d.Graph.TopologyBytesUnweighted())/(1<<20), float64(d.FeatureBytes())/(1<<20))

	if *stats {
		printDegreeStats(d)
	}
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			log.Fatal(err)
		}
		if err := writeGraph(f, d); err != nil {
			log.Fatal(err)
		}
		if err := f.Close(); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("wrote %s\n", *out)
	}
}

func writeGraph(w *os.File, d *gnnlab.Dataset) error {
	return gnnlab.WriteDataset(w, d)
}

func printDegreeStats(d *gnnlab.Dataset) {
	out := graph.OutDegrees(d.Graph)
	in := graph.InDegrees(d.Graph)
	for _, s := range []struct {
		name string
		deg  []int64
	}{{"out-degree", out}, {"in-degree", in}} {
		sorted := append([]int64(nil), s.deg...)
		slices.Sort(sorted)
		q := func(p float64) int64 { return sorted[int(p*float64(len(sorted)-1))] }
		fmt.Printf("%s: p50 %d  p90 %d  p99 %d  max %d\n",
			s.name, q(0.50), q(0.90), q(0.99), sorted[len(sorted)-1])
	}
}
