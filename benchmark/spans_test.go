package main

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"testing"
	"time"
)

// spin burns roughly d of wall time so recorded spans have width.
func spin(d time.Duration) {
	for t0 := time.Now(); time.Since(t0) < d; {
	}
}

func TestSelfTimeFromKnownIntervals(t *testing.T) {
	rec := newRecorder()
	ln := rec.lane("l")
	us := func(n int) time.Duration { return time.Duration(n) * time.Microsecond }
	ln.spans = []span{
		{name: "cycle", parent: -1, cycle: 1, start: us(0), end: us(100)},
		{name: "a", parent: 0, cycle: 1, start: us(10), end: us(40)},
		{name: "b", parent: 0, cycle: 1, start: us(50), end: us(90)},
		{name: "c", parent: 2, cycle: 1, start: us(60), end: us(70)},
		{name: "setup", parent: -1, cycle: 0, start: us(200), end: us(900)}, // not under a cycle root
	}
	want := map[string]float64{"cycle": 30e-6, "a": 30e-6, "b": 30e-6, "c": 10e-6, "setup": 700e-6}
	for name, w := range want {
		got := rec.selfOf(name)
		if len(got) != 1 || math.Abs(got[0]-w) > 1e-12 {
			t.Errorf("self time of %s = %v, want [%v]", name, got, w)
		}
	}
	shares := rec.shares("cycle")
	for name, w := range map[string]float64{"cycle": 0.3, "a": 0.3, "b": 0.3, "c": 0.1} {
		if math.Abs(shares[name]-w) > 1e-9 {
			t.Errorf("share of %s = %v, want %v", name, shares[name], w)
		}
	}
	if _, ok := shares["setup"]; ok {
		t.Errorf("a span outside every cycle root entered the shares: %v", shares)
	}
}

func TestRecordedChildrenStayInsideParents(t *testing.T) {
	rec := newRecorder()
	ln := rec.lane("worker")
	for cycle := 1; cycle <= 20; cycle++ {
		root := ln.begin("cycle", cycle)
		ln.time("sample", cycle, func() { spin(50 * time.Microsecond) })
		outer := ln.begin("forward", cycle)
		spin(20 * time.Microsecond)
		ln.time("matmul", cycle, func() { spin(80 * time.Microsecond) })
		ln.end(outer)
		spin(10 * time.Microsecond) // the root's own time
		ln.end(root)
	}
	childSum := make([]time.Duration, len(ln.spans))
	for i, s := range ln.spans {
		if s.end < s.start {
			t.Fatalf("span %d (%s) ends before it starts", i, s.name)
		}
		if s.parent < 0 {
			continue
		}
		p := ln.spans[s.parent]
		if s.start < p.start || s.end > p.end {
			t.Errorf("span %d (%s) [%v,%v] leaves its parent %s [%v,%v]", i, s.name, s.start, s.end, p.name, p.start, p.end)
		}
		if s.cycle != p.cycle {
			t.Errorf("span %d (%s) has cycle %d, parent has %d", i, s.name, s.cycle, p.cycle)
		}
		childSum[s.parent] += s.end - s.start
	}
	for i, s := range ln.spans {
		if childSum[i] > s.end-s.start {
			t.Errorf("children of span %d (%s) cover %v, more than its %v", i, s.name, childSum[i], s.end-s.start)
		}
	}
	for i, self := range ln.selfSeconds() {
		if self < 0 {
			t.Errorf("span %d has negative self time %v", i, self)
		}
	}
	var total float64
	shares := rec.shares("cycle")
	for _, v := range shares {
		total += v
	}
	if math.Abs(total-1) > 0.01 {
		t.Errorf("stage shares sum to %v, want 1 ± 0.01: %v", total, shares)
	}
	if shares["matmul"] <= shares["cycle"] {
		t.Errorf("matmul (80µs) should outweigh the root's own 10µs: %v", shares)
	}
}

func TestNilLaneRecordsNothing(t *testing.T) {
	var ln *lane
	ran := false
	id := ln.begin("x", 1)
	ln.time("y", 1, func() { ran = true })
	ln.end(id)
	if !ran {
		t.Fatal("a nil lane must still run the timed function")
	}
}

func TestEndOutOfOrderPanics(t *testing.T) {
	ln := newRecorder().lane("l")
	outer := ln.begin("outer", 1)
	ln.begin("inner", 1)
	defer func() {
		if recover() == nil {
			t.Fatal("closing the outer span before the inner one must panic")
		}
	}()
	ln.end(outer)
}

func TestWriteTraceIsChromeTraceJSON(t *testing.T) {
	rec := newRecorder()
	a, b := rec.lane("generator"), rec.lane("dispatcher")
	a.time("submit", 3, func() {})
	root := b.begin("step", 4)
	b.time("forward", 4, func() {})
	b.end(root)
	b.begin("left open", 5)

	path := filepath.Join(t.TempDir(), "sub", "trace.json")
	if err := rec.writeTrace(path); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Ph   string         `json:"ph"`
			Tid  int            `json:"tid"`
			Ts   *float64       `json:"ts"`
			Dur  *float64       `json:"dur"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatalf("trace is not JSON: %v\n%s", err, raw)
	}
	complete := map[string]int{}
	threads := 0
	for _, e := range doc.TraceEvents {
		switch e.Ph {
		case "M":
			threads++
		case "X":
			if e.Ts == nil || e.Dur == nil || *e.Dur < 0 {
				t.Errorf("event %s lacks ts/dur", e.Name)
			}
			complete[e.Name] = e.Tid
			if _, ok := e.Args["cycle"]; !ok {
				t.Errorf("event %s lacks its cycle id", e.Name)
			}
		default:
			t.Errorf("unexpected phase %q", e.Ph)
		}
	}
	if threads != 2 || len(complete) != 3 {
		t.Fatalf("want 2 thread names and 3 complete events (the open span is skipped), got %d and %v", threads, complete)
	}
	if complete["submit"] == complete["step"] || complete["step"] != complete["forward"] {
		t.Errorf("lanes must map to distinct tids: %v", complete)
	}
}
