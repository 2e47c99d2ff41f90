package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// readResults loads a result file (one JSON record per line, as -out
// writes them) and groups the untraced records' end-to-end values by
// workload and metric.
func readResults(path string) (map[string]map[string][]float64, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	out := map[string]map[string][]float64{}
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<26)
	for line := 1; sc.Scan(); line++ {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var r result
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s:%d: %w", path, line, err)
		}
		if r.Traced {
			continue // end-to-end numbers are never taken from a traced run
		}
		if out[r.Workload] == nil {
			out[r.Workload] = map[string][]float64{}
		}
		for name, m := range r.Metrics {
			out[r.Workload][name] = append(out[r.Workload][name], m.Value)
		}
	}
	return out, sc.Err()
}

// compareFiles prints, per workload row, each end-to-end metric's median
// in a and in b, how much worse b is relative to a (negative = better),
// and whether that is inside the metric's bound. It reports whether every
// row is.
func compareFiles(w io.Writer, man *manifest, pathA, pathB string) (bool, error) {
	a, err := readResults(pathA)
	if err != nil {
		return false, err
	}
	b, err := readResults(pathB)
	if err != nil {
		return false, err
	}
	allInside := true
	fmt.Fprintf(w, "%-15s %-12s %14s %14s %9s %7s  %s\n", "workload", "metric", "median a", "median b", "worse by", "bound", "verdict")
	for _, wl := range man.Workloads {
		for _, def := range man.EndToEnd {
			va, vb := a[wl.Name][def.Name], b[wl.Name][def.Name]
			if len(va) == 0 || len(vb) == 0 {
				fmt.Fprintf(w, "%-15s %-12s %14s %14s %9s %7s  %s\n", wl.Name, def.Name, "-", "-", "-", "-", "MISSING")
				allInside = false
				continue
			}
			ma, mb := median(va), median(vb)
			worse := (mb - ma) / ma
			if def.Better == "higher" {
				worse = (ma - mb) / ma
			}
			verdict := "inside"
			if worse > def.Bound {
				verdict = "OUTSIDE"
				allInside = false
			}
			fmt.Fprintf(w, "%-15s %-12s %14.6g %14.6g %+8.2f%% %6.1f%%  %s (n=%d,%d)\n",
				wl.Name, def.Name, ma, mb, 100*worse, 100*def.Bound, verdict, len(va), len(vb))
		}
	}
	return allInside, nil
}
