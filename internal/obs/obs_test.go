package obs

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
	"time"
)

// traceDoc mirrors the JSON shape WriteTrace must produce.
type traceDoc struct {
	TraceEvents []traceEvent `json:"traceEvents"`
}

type traceEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args"`
}

func decodeTrace(t *testing.T, r *Recorder) traceDoc {
	t.Helper()
	var buf bytes.Buffer
	if err := r.WriteTrace(&buf); err != nil {
		t.Fatalf("WriteTrace: %v", err)
	}
	var doc traceDoc
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("trace is not valid JSON: %v\n%s", err, buf.String())
	}
	return doc
}

func TestTraceEventShape(t *testing.T) {
	r := NewRecorder()
	l := r.Lane("Measure", "worker-0")
	sp := l.Start("sample")
	time.Sleep(time.Millisecond)
	sp.End(Attr{"epoch", 0}, Attr{"batch", 3})
	l.Complete("extract", 1.5, 0.25, Attr{"task", 7})

	doc := decodeTrace(t, r)
	var metas, completes int
	byName := map[string]traceEvent{}
	for _, e := range doc.TraceEvents {
		switch e.Ph {
		case "M":
			metas++
		case "X":
			completes++
		}
		byName[e.Name] = e
	}
	if metas != 2 { // process_name + thread_name
		t.Errorf("got %d metadata events, want 2", metas)
	}
	if completes != 2 {
		t.Errorf("got %d complete events, want 2", completes)
	}
	smp := byName["sample"]
	if smp.Ph != "X" || smp.Dur <= 0 {
		t.Errorf("sample span: ph=%q dur=%v, want X with positive duration", smp.Ph, smp.Dur)
	}
	if got := smp.Args["batch"]; got != float64(3) {
		t.Errorf("sample batch attr = %v, want 3", got)
	}
	ext := byName["extract"]
	if ext.Ts != 1.5e6 || ext.Dur != 0.25e6 {
		t.Errorf("simulated span at ts=%v dur=%v, want 1.5e6/0.25e6", ext.Ts, ext.Dur)
	}
	pn := byName["process_name"]
	if pn.Args["name"] != "Measure" {
		t.Errorf("process_name = %v, want Measure", pn.Args["name"])
	}
}

func TestLanesSeparateProcessesAndThreads(t *testing.T) {
	r := NewRecorder()
	a0 := r.Lane("A", "t0")
	a1 := r.Lane("A", "t1")
	b0 := r.Lane("B", "t0")
	if a0.pid != a1.pid {
		t.Errorf("same process got different pids: %d vs %d", a0.pid, a1.pid)
	}
	if a0.tid == a1.tid {
		t.Errorf("different threads share tid %d", a0.tid)
	}
	if b0.pid == a0.pid {
		t.Errorf("different processes share pid %d", b0.pid)
	}
	if again := r.Lane("A", "t0"); again != a0 {
		t.Errorf("lane lookup not stable: %+v vs %+v", again, a0)
	}
	// 3 lanes -> 2 process_name + 3 thread_name metadata events, no more.
	if n := r.NumEvents(); n != 5 {
		t.Errorf("metadata events = %d, want 5", n)
	}
}

func TestSpanHierarchy(t *testing.T) {
	r := NewRecorder()
	parent := r.Lane("Cost", "run").Start("epoch")
	child := parent.Child("probe")
	child.End()
	parent.End()
	doc := decodeTrace(t, r)
	for _, e := range doc.TraceEvents {
		if e.Name == "probe" {
			if e.Args["parent"] != "epoch" {
				t.Errorf("child parent attr = %v, want epoch", e.Args["parent"])
			}
			return
		}
	}
	t.Fatal("child span not recorded")
}

func TestNilRecorderIsDisabledAndAllocationFree(t *testing.T) {
	var r *Recorder
	if r.NumEvents() != 0 {
		t.Error("nil recorder has events")
	}
	var buf bytes.Buffer
	if err := r.WriteTrace(&buf); err != nil {
		t.Fatalf("nil WriteTrace: %v", err)
	}
	if !strings.Contains(buf.String(), "traceEvents") {
		t.Errorf("nil trace missing traceEvents: %s", buf.String())
	}

	reg := r.Registry()
	c := reg.Counter("x")
	g := reg.Gauge("y")
	h := reg.Histogram("z")
	lane := r.Lane("p", "t")
	allocs := testing.AllocsPerRun(200, func() {
		sp := lane.Start("hot")
		sp.Child("inner").End()
		sp.End()
		lane.Complete("sim", 0, 1)
		c.Add(1)
		g.Set(2)
		h.Observe(3)
	})
	if allocs != 0 {
		t.Errorf("disabled hot path allocates %v per run, want 0", allocs)
	}
}

func TestRegistryInstruments(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("hits").Add(3)
	reg.Counter("hits").Add(2)
	reg.Gauge("depth").Set(7.5)
	for _, v := range []float64{1, 4, 2} {
		reg.Histogram("lat").Observe(v)
	}
	s := reg.Snapshot()
	if s.Counters["hits"] != 5 {
		t.Errorf("hits = %d, want 5", s.Counters["hits"])
	}
	if s.Gauges["depth"] != 7.5 {
		t.Errorf("depth = %v, want 7.5", s.Gauges["depth"])
	}
	h := s.Histograms["lat"]
	if h.Count != 3 || h.Sum != 7 || h.Min != 1 || h.Max != 4 {
		t.Errorf("lat histogram = %+v", h)
	}
	var buf bytes.Buffer
	if err := s.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	text := buf.String()
	for _, want := range []string{"hits", "depth", "lat"} {
		if !strings.Contains(text, want) {
			t.Errorf("snapshot text missing %q:\n%s", want, text)
		}
	}
	// Name-sorted output is stable.
	var buf2 bytes.Buffer
	if err := s.WriteText(&buf2); err != nil {
		t.Fatal(err)
	}
	if buf.String() != buf2.String() {
		t.Error("snapshot text not deterministic")
	}
}

func TestWriteTraceDeterministicOrder(t *testing.T) {
	build := func() *Recorder {
		r := NewRecorder()
		r.Lane("B", "t").Complete("b", 2, 1)
		r.Lane("A", "t").Complete("a", 1, 1)
		r.Lane("A", "t").Complete("a2", 3, 1)
		return r
	}
	var x, y bytes.Buffer
	if err := build().WriteTrace(&x); err != nil {
		t.Fatal(err)
	}
	if err := build().WriteTrace(&y); err != nil {
		t.Fatal(err)
	}
	if x.String() != y.String() {
		t.Errorf("trace output not deterministic:\n%s\nvs\n%s", x.String(), y.String())
	}
}
