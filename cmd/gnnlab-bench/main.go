// Command gnnlab-bench regenerates the paper's evaluation tables and
// figures (see DESIGN.md for the per-experiment index).
//
// Usage:
//
//	gnnlab-bench [-scale N] [-gpus N] [-epochs N] [-faults N] [-drift N]
//	             [-packed] [-format table|csv] [-list] [-whatif DATASET] [-serve]
//	             [-eventlog out.jsonl] [-trace out.json] [-metrics]
//	             [-pprof addr] [experiment ...]
//
// With no experiment arguments, every registered experiment (the paper's
// tables and figures plus the ablations) runs in paper order. At -scale 1
// (default) the calibrated 1/100-scale presets are used; larger scales
// shrink datasets and simulated GPUs together for quick runs.
//
// The measurement engine fans out over GOMAXPROCS cores, and every table
// is byte-identical at any setting: GOMAXPROCS=1 gnnlab-bench … runs it
// serially. A negative size flag prints an error and exits 2.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"time"

	"gnnlab"
	"gnnlab/internal/experiments"
	"gnnlab/internal/measure"
	"gnnlab/internal/obs"
)

func main() {
	scale := flag.Int("scale", 1, "dataset/GPU scale divisor (1 = calibrated scale)")
	gpus := flag.Int("gpus", 8, "number of simulated GPUs")
	epochs := flag.Int("epochs", 3, "measured epochs per configuration")
	seed := flag.Uint64("seed", 0, "experiment seed (0 = default)")
	faults := flag.Int("faults", 0, "cap for the resilience experiment's injected-fault sweep (0 = default sweep)")
	drift := flag.Int("drift", 0, "mutation rounds for the dynamic-graph drift experiment (0 = default sweep)")
	packed := flag.Bool("packed", false, "run over the compressed packed topology (bit-identical tables; Vol_G reflects the compressed bytes)")
	noStore := flag.Bool("nostore", false, "disable the shared measurement store (every cell re-measures and each experiment generates its own datasets; results are identical either way)")
	list := flag.Bool("list", false, "list experiment IDs and exit")
	format := flag.String("format", "table", "output format: table or csv")
	tracePath := flag.String("trace", "", "write a Chrome/Perfetto trace-event JSON file of the run to this path")
	metrics := flag.Bool("metrics", false, "print the observability counters (measure/cost/store) to stderr at the end")
	pprofAddr := flag.String("pprof", "", "serve net/http/pprof and expvar on this address (e.g. :6060)")
	whatif := flag.String("whatif", "", "trace one GNNLab epoch on this dataset preset and print its time accounting + what-if capacity estimates (skips the experiments)")
	serve := flag.Bool("serve", false, "run only the online inference serving experiment (p50/p99 latency and max sustainable QPS per Sampler/Trainer split); shorthand for the 'serving' experiment id")
	eventlogPath := flag.String("eventlog", "", "write a structured JSONL event log (faults, reallocations, per-run summaries) to this path")
	flag.Parse()
	if *format != "table" && *format != "csv" {
		fmt.Fprintf(os.Stderr, "gnnlab-bench: unknown format %q\n", *format)
		os.Exit(2)
	}

	if *list {
		for _, id := range experiments.IDs() {
			fmt.Println(id)
		}
		return
	}

	opts := experiments.Options{Scale: *scale, NumGPUs: *gpus, Epochs: *epochs, Seed: *seed, Faults: *faults, Drift: *drift, Packed: *packed}
	if err := opts.Validate(); err != nil {
		fmt.Fprintf(os.Stderr, "gnnlab-bench: %v\n", err)
		os.Exit(2)
	}
	if *tracePath != "" || *metrics || *pprofAddr != "" || *eventlogPath != "" {
		opts.Obs = obs.NewRecorder()
	}
	var evFile *os.File
	if *eventlogPath != "" {
		f, err := os.Create(*eventlogPath)
		if err != nil {
			log.Fatal(err)
		}
		evFile = f
		opts.Obs.SetEventLog(obs.NewLog(f, obs.LevelInfo))
	}
	// os.Exit skips defers: every exit path below funnels through this.
	closeEventLog := func() {
		if evFile == nil {
			return
		}
		if err := opts.Obs.EventLog().Err(); err != nil {
			log.Printf("event log: %v", err)
		}
		if err := evFile.Close(); err != nil {
			log.Fatal(err)
		}
		evFile = nil
	}
	if *whatif != "" {
		runWhatIf(*whatif, *scale, *gpus, opts.Obs)
		closeEventLog()
		return
	}
	if *pprofAddr != "" {
		ds, err := obs.ServeDebug(*pprofAddr, opts.Obs.Registry())
		if err != nil {
			log.Fatalf("debug server: %v", err)
		}
		defer ds.Close()
		fmt.Fprintf(os.Stderr, "debug server: http://%s/metrics\n", ds.Addr)
	}
	if !*noStore {
		// One content-keyed store across all experiments: cells sharing
		// sampling work measure once and replay many times, and each
		// dataset is generated once.
		opts.Store = measure.NewStore()
		opts.Store.Observe(opts.Obs.Registry())
	}
	ids := flag.Args()
	if *serve {
		ids = append([]string{"serving"}, ids...)
	}
	if len(ids) == 0 {
		ids = experiments.IDs()
	}
	exit := 0
	for _, id := range ids {
		fn, ok := experiments.Lookup(id)
		if !ok {
			fmt.Fprintf(os.Stderr, "gnnlab-bench: unknown experiment %q (use -list)\n", id)
			exit = 1
			continue
		}
		start := time.Now()
		tbl, err := fn(opts)
		if err != nil {
			fmt.Fprintf(os.Stderr, "gnnlab-bench: %s: %v\n", id, err)
			exit = 1
			continue
		}
		if *format == "csv" {
			fmt.Printf("# %s: %s\n%s\n", tbl.ID, tbl.Title, tbl.RenderCSV())
		} else {
			fmt.Print(tbl.Render())
			fmt.Printf("(%s completed in %v)\n\n", id, time.Since(start).Round(time.Millisecond))
		}
	}
	if opts.Store != nil {
		hits, misses := opts.Store.Stats()
		fmt.Fprintf(os.Stderr, "measurement store: %d measured, %d reused\n", misses, hits)
	}
	if *tracePath != "" {
		f, err := os.Create(*tracePath)
		if err != nil {
			log.Fatal(err)
		}
		if err := opts.Obs.WriteTrace(f); err != nil {
			log.Fatal(err)
		}
		if err := f.Close(); err != nil {
			log.Fatal(err)
		}
		fmt.Fprintf(os.Stderr, "trace: %d events -> %s (open at https://ui.perfetto.dev)\n",
			opts.Obs.NumEvents(), *tracePath)
	}
	if *metrics {
		if err := opts.Obs.Registry().Snapshot().WriteText(os.Stderr); err != nil {
			log.Fatal(err)
		}
	}
	closeEventLog()
	os.Exit(exit)
}

// runWhatIf traces one GNNLab epoch on a dataset preset and prints the
// exact time accounting — which role binds epoch time, and the factored
// estimates for each ±1-GPU reallocation.
func runWhatIf(dataset string, scale, gpus int, rec *gnnlab.Observer) {
	d, err := gnnlab.LoadDatasetScaled(dataset, scale)
	if err != nil {
		log.Fatal(err)
	}
	w := gnnlab.NewWorkload(gnnlab.ModelGCN)
	w.BatchSize /= scale
	if w.BatchSize < 4 {
		w.BatchSize = 4
	}
	cfg := gnnlab.NewGNNLab(w, gpus)
	cfg.GPUMemory = gnnlab.DefaultGPUMemory / int64(scale)
	cfg.MemScale = float64(scale)
	cfg.Epochs = 1
	cfg.Trace = true
	rep, err := gnnlab.RunObserved(d, cfg, rec)
	if err != nil {
		log.Fatal(err)
	}
	if rep.OOM {
		log.Fatalf("OOM: %s", rep.OOMReason)
	}
	fmt.Printf("%s\n\n", rep)
	acct, err := gnnlab.BuildAccount(rep)
	if err != nil {
		log.Fatal(err)
	}
	if err := acct.WriteReport(os.Stdout); err != nil {
		log.Fatal(err)
	}
}
