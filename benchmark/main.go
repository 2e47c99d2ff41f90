// Command benchmark is the repository's one benchmark: four workloads
// driven through the real entry points (train.Train, serve.Server,
// gnnlab.Measure/Replay) for the end-to-end metrics, and a separate traced
// run that hand-sequences the same public calls with a span around each
// for the per-layer metrics. BENCHMARK.json at the repository root names
// every metric, its unit, direction and regression bound; README.md says
// why each workload exists and which layer should move which metric.
//
//	go run ./benchmark -workload train-inline -seed 1 -seconds 20
//	go run ./benchmark -workload serve-open -seed 1 -seconds 20 -trace 1
//	go run ./benchmark -compare a.jsonl b.jsonl
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
)

// sizes scales the generated inputs: the full profile is what the driver
// runs, the quick one is what `go test` runs in seconds.
type sizes struct {
	convDiv        int // CONV preset divisor (train-inline)
	socialVertices int // social graph size (train-factored, serve-open)
	paDiv          int // PA preset divisor (simulate-pa)
	setupReps      int // set-ups per run; setup_s is their median
	// trainEpochs is how many epochs one timed train.Train call runs: at
	// full size long enough that per-call set-up (model init, hold-out,
	// PreSC) weighs what a user pays, short enough that a run holds
	// several repetitions.
	trainEpochs int
	// serveRate is the open loop's fixed offered load in requests/s and
	// serveLimit the latency in seconds within which an answer counts
	// towards goodput. Both are properties of the workload, not of the
	// host: a faster Step shows as lower latency at this rate, not as a
	// higher rate. The quick profile's are loose enough for a
	// race-detector build.
	serveRate, serveLimit float64
	// Floors that only the full-size inputs can be held to: train-inline's
	// final accuracy, and how much of its epoch the hand-sequenced chain
	// explains. Coverage reads 0.88–0.93 here; the floor sits well below,
	// as the ceiling (1.15) sits above, because the two times compared are
	// taken seconds apart on a host whose speed drifts by 15%.
	minAccuracy, minCoverage float64
}

var (
	fullSizes  = sizes{convDiv: 1, socialVertices: 50_000, paDiv: 2, setupReps: 3, trainEpochs: 3, serveRate: 6000, serveLimit: 0.010, minAccuracy: 0.95, minCoverage: 0.75}
	quickSizes = sizes{convDiv: 4, socialVertices: 4_000, paDiv: 64, setupReps: 1, trainEpochs: 1, serveRate: 200, serveLimit: 1, minAccuracy: 0.25}
)

// config is one invocation.
type config struct {
	workload  string
	seed      uint64
	seconds   float64
	traced    bool
	tracePath string
	sz        sizes
}

// workloads maps a name to its runner. Order is the README's.
var workloads = []struct {
	name string
	run  func(cfg config, res *result) error
}{
	{"train-inline", func(cfg config, res *result) error { return runTrain(cfg, trainInline(cfg), res) }},
	{"train-factored", func(cfg config, res *result) error { return runTrain(cfg, trainFactored(cfg), res) }},
	{"simulate-pa", runSimulate},
	{"serve-open", runServe},
}

func main() {
	var (
		workload = flag.String("workload", "", "train-inline | train-factored | simulate-pa | serve-open")
		seed     = flag.Uint64("seed", 1, "keys the dataset, train.Options.Seed, the arrival schedule and the vertex picks")
		seconds  = flag.Float64("seconds", 20, "how long the run measures")
		trace    = flag.String("trace", "0", "0 = untraced end-to-end run; 1 = traced per-layer run writing benchmark/out/trace-<workload>.json; any other value = traced, written to that path")
		quick    = flag.Bool("quick", false, "toy input sizes (what go test runs)")
		out      = flag.String("out", "", "append the full result record as one JSON line to this file (input of -compare)")
		compare  = flag.Bool("compare", false, "compare two result files: -compare a.jsonl b.jsonl")
	)
	flag.Parse()

	man, err := loadManifest()
	if err != nil {
		fatal(err)
	}
	if *compare {
		if flag.NArg() != 2 {
			fatal(fmt.Errorf("-compare needs two result files"))
		}
		ok, err := compareFiles(os.Stdout, man, flag.Arg(0), flag.Arg(1))
		if err != nil {
			fatal(err)
		}
		if !ok {
			os.Exit(1)
		}
		return
	}

	cfg := config{workload: *workload, seed: *seed, seconds: *seconds, sz: fullSizes}
	if *quick {
		cfg.sz = quickSizes
	}
	switch *trace {
	case "0", "":
	case "1":
		cfg.traced, cfg.tracePath = true, "benchmark/out/trace-"+*workload+".json"
	default:
		cfg.traced, cfg.tracePath = true, *trace
	}
	res, err := run(cfg, man)
	if err != nil {
		fatal(err)
	}
	res.print(os.Stdout)
	if *out != "" {
		if err := res.appendTo(*out); err != nil {
			fatal(err)
		}
	}
	// The contract's result line: last on stdout, exactly these keys.
	fmt.Println(res.line())
	if !res.Correct {
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchmark:", err)
	os.Exit(2)
}

// run executes one workload and returns its finished result.
func run(cfg config, man *manifest) (*result, error) {
	if cfg.seconds <= 0 {
		return nil, fmt.Errorf("-seconds must be positive")
	}
	for _, w := range workloads {
		if w.name != cfg.workload {
			continue
		}
		res := newResult(cfg, man)
		if err := w.run(cfg, res); err != nil {
			return nil, fmt.Errorf("%s: %w", cfg.workload, err)
		}
		if err := res.finish(); err != nil {
			return nil, err
		}
		return res, nil
	}
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %s)", cfg.workload, strings.Join(names, ", "))
}

// manifest is BENCHMARK.json: the one place metric names, units,
// directions and bounds are written down.
type manifest struct {
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// loadManifest reads BENCHMARK.json from the working directory (the
// repository root under `go run ./benchmark`) or its parent (under
// `go test`, which runs in the package directory).
func loadManifest() (*manifest, error) {
	var raw []byte
	var err error
	for _, p := range []string{"BENCHMARK.json", "../BENCHMARK.json"} {
		if raw, err = os.ReadFile(p); err == nil {
			break
		}
	}
	if err != nil {
		return nil, fmt.Errorf("BENCHMARK.json not found: run from the repository root: %w", err)
	}
	var m manifest
	if err := json.Unmarshal(raw, &m); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &m, nil
}

// environment is written into every result so that a baseline taken on
// one core can never pass silently for one taken on two.
type environment struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Commit     string `json:"commit"`
}

func currentEnvironment() environment {
	return environment{
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Commit:     commit(),
	}
}

// commit finds the source revision: the build's VCS stamp when there is
// one, else .git/HEAD of the working directory, else "unknown" (the
// driver's checkout is not a git repository).
func commit() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	for _, root := range []string{".", ".."} {
		head, err := os.ReadFile(root + "/.git/HEAD")
		if err != nil {
			continue
		}
		h := strings.TrimSpace(string(head))
		if ref, ok := strings.CutPrefix(h, "ref: "); ok {
			if b, err := os.ReadFile(root + "/.git/" + ref); err == nil {
				return strings.TrimSpace(string(b))
			}
			return ref
		}
		return h
	}
	return "unknown"
}

// metric is one reported number. N is the sample count behind a timing
// and Pct the percentile a tail was read at; both are left out of the
// contract's result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	N     int     `json:"n,omitempty"`
	Pct   float64 `json:"pct,omitempty"`
}

// check is one correctness check; a failed one makes the run incorrect.
type check struct {
	Name   string `json:"name"`
	OK     bool   `json:"ok"`
	Detail string `json:"detail,omitempty"`
}

// result is the full record of a run: what -out appends and -compare
// reads. Claim is always null: the benchmark measures, it claims nothing.
type result struct {
	Workload  string            `json:"workload"`
	Seed      uint64            `json:"seed"`
	Seconds   float64           `json:"seconds"`
	Traced    bool              `json:"traced"`
	Env       environment       `json:"env"`
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
	Checks    []check           `json:"checks"`
	Notes     map[string]any    `json:"notes,omitempty"`
	Claim     *string           `json:"claim"`

	units map[string]string // the manifest's names for this kind of run
}

func newResult(cfg config, man *manifest) *result {
	defs := man.EndToEnd
	if cfg.traced {
		defs = man.PerLayer
	}
	units := make(map[string]string, len(defs))
	for _, d := range defs {
		units[d.Name] = d.Unit
	}
	return &result{
		Workload: cfg.workload, Seed: cfg.seed, Seconds: cfg.seconds, Traced: cfg.traced,
		Env:     currentEnvironment(),
		Metrics: map[string]metric{},
		Notes:   map[string]any{},
		units:   units,
	}
}

// put records a metric once. A name BENCHMARK.json does not list for this
// kind of run, or a second value for one name, is a bug in the benchmark.
func (r *result) put(name string, value float64) { r.putN(name, value, 0, 0) }

func (r *result) putN(name string, value float64, n int, pct float64) {
	unit, ok := r.units[name]
	if !ok {
		panic("benchmark: metric " + name + " is not in BENCHMARK.json for this run kind")
	}
	if _, dup := r.Metrics[name]; dup {
		panic("benchmark: metric " + name + " emitted twice")
	}
	r.Metrics[name] = metric{Value: value, Unit: unit, N: n, Pct: pct}
}

// putTiming reports a sample's median under p50Name and, when tailName is
// set, its highest supported percentile there. scale converts the
// sample's seconds into the metric's unit.
func (r *result) putTiming(p50Name, tailName string, seconds []float64, scale float64) {
	r.putTimingAt(p50Name, tailName, seconds, scale, tailGrid[len(tailGrid)-1])
}

// putTimingAt is putTiming with the tail read no higher than wantTail.
func (r *result) putTimingAt(p50Name, tailName string, seconds []float64, scale, wantTail float64) {
	s := summarizeAt(seconds, wantTail)
	r.putN(p50Name, s.P50*scale, s.N, 50)
	if tailName != "" {
		r.putN(tailName, s.Tail*scale, s.N, s.TailPct)
	}
}

// expectSharesSumToOne checks a traced run's stage shares.
func expectSharesSumToOne(r *result, shares map[string]float64) {
	var total float64
	for _, v := range shares {
		total += v
	}
	r.expect("traced stage shares sum to 1", math.Abs(total-1) <= 0.01, "sum %.4f", total)
}

// expect records a correctness check.
func (r *result) expect(name string, ok bool, format string, args ...any) {
	c := check{Name: name, OK: ok}
	if !ok {
		c.Detail = fmt.Sprintf(format, args...)
	}
	r.Checks = append(r.Checks, c)
}

// finish fills in what every run reports and settles correctness. A
// traced run reports 0 for the metrics of layers its workload never
// enters; an untraced run must have set every end-to-end metric itself.
func (r *result) finish() error {
	if !r.Traced {
		r.put("peak_rss_mb", peakRSSMB())
	}
	var missing []string
	for name, unit := range r.units {
		if _, ok := r.Metrics[name]; ok {
			continue
		}
		if !r.Traced {
			missing = append(missing, name)
			continue
		}
		r.Metrics[name] = metric{Unit: unit}
	}
	if len(missing) > 0 {
		sort.Strings(missing)
		return fmt.Errorf("%s: end-to-end metrics never set: %s", r.Workload, strings.Join(missing, ", "))
	}
	if r.Attempted < 1 {
		return fmt.Errorf("%s: nothing attempted", r.Workload)
	}
	r.Correct = true
	for _, c := range r.Checks {
		if !c.OK {
			r.Correct = false
		}
	}
	return nil
}

// print writes the human-readable table: every metric by name with its
// unit, then the checks.
func (r *result) print(w *os.File) {
	kind := "end-to-end (untraced)"
	if r.Traced {
		kind = "per-layer (traced)"
	}
	fmt.Fprintf(w, "workload %s  seed %d  %gs  %s  nproc=%d GOMAXPROCS=%d %s commit=%s\n",
		r.Workload, r.Seed, r.Seconds, kind, r.Env.NProc, r.Env.GOMAXPROCS, r.Env.GoVersion, r.Env.Commit)
	names := make([]string, 0, len(r.Metrics))
	for n := range r.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := r.Metrics[n]
		extra := ""
		if m.N > 0 {
			extra = fmt.Sprintf("  (p%g of n=%d)", m.Pct, m.N)
		}
		fmt.Fprintf(w, "  %-34s %16s %-7s%s\n", n, strconv.FormatFloat(m.Value, 'g', 8, 64), m.Unit, extra)
	}
	for _, c := range r.Checks {
		state := "ok"
		if !c.OK {
			state = "FAILED: " + c.Detail
		}
		fmt.Fprintf(w, "  check %-40s %s\n", c.Name, state)
	}
	fmt.Fprintf(w, "  attempted %d  failed %d  correct %v\n", r.Attempted, r.Failed, r.Correct)
}

// line renders the contract's result object.
func (r *result) line() string {
	type bare struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool            `json:"correct"`
		Attempted int64           `json:"attempted"`
		Failed    int64           `json:"failed"`
		Metrics   map[string]bare `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, map[string]bare{}}
	for n, m := range r.Metrics {
		out.Metrics[n] = bare{m.Value, m.Unit}
	}
	b, err := json.Marshal(out)
	if err != nil {
		panic(err) // only NaN/Inf can fail; finish rejects neither, checks do
	}
	return string(b)
}

// appendTo appends the full record as one JSON line.
func (r *result) appendTo(path string) error {
	b, err := json.Marshal(r)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(b, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// resetPeakRSS restarts the kernel's resident-set high-water mark from
// the current resident set (Linux: "5" to /proc/self/clear_refs) and says
// what peak_rss_mb will therefore cover. Where that is not permitted the
// mark keeps covering the whole process.
func resetPeakRSS() string {
	if err := os.WriteFile("/proc/self/clear_refs", []byte("5"), 0); err != nil {
		return "whole process (high-water mark not resettable: " + err.Error() + ")"
	}
	return "measured phase (mark reset after set-up)"
}

// peakRSSMB reads the process's resident-set high-water mark (VmHWM) in
// MB; 0 where /proc is not available.
func peakRSSMB() float64 {
	raw, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, ln := range strings.Split(string(raw), "\n") {
		if rest, ok := strings.CutPrefix(ln, "VmHWM:"); ok {
			f := strings.Fields(rest)
			if len(f) >= 1 {
				kb, _ := strconv.ParseFloat(f[0], 64)
				return kb / 1024
			}
		}
	}
	return 0
}
