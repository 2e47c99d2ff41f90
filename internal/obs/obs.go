// Package obs is the cross-layer observability subsystem of the
// Measure→Cost→Simulate pipeline: hierarchical spans with attributes,
// recorded into a per-run Recorder that exports Chrome/Perfetto
// trace-event JSON, plus a registry of named counters, gauges and
// histograms (see metrics.go).
//
// The package is dependency-free (standard library only) and built
// around one contract: a nil *Recorder is a valid, fully disabled
// recorder. Every method is nil-safe and the disabled paths allocate
// nothing, so instrumented hot loops (the measurement engine, the cost
// probe, the live trainers) cost nothing when observability is off —
// and, because spans only *observe*, the instrumented layers produce
// bit-identical results when it is on.
//
// Trace model: one trace-event "process" per pipeline layer (Measure,
// Cost, Sampler, Trainer, Train, ...), one "thread" per worker or
// executor lane within it, and ph:"X" complete events for spans. Two
// time domains coexist: wall-clock spans (Lane.Start/Span.End) are
// stamped relative to the Recorder's start, while simulated-time spans
// (Lane.Complete) carry the event engine's own clock. Both are emitted
// in microseconds, the trace-event unit.
package obs

import (
	"encoding/json"
	"io"
	"sort"
	"sync"
	"time"
)

// Attr is one key/value attribute attached to a span or event; it lands
// in the trace event's args object.
type Attr struct {
	Key   string
	Value any
}

// event is one Chrome trace-event record (the JSON shape Perfetto and
// chrome://tracing load).
type event struct {
	Name string         `json:"name,omitempty"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur,omitempty"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	S    string         `json:"s,omitempty"`
	Args map[string]any `json:"args,omitempty"`
}

// Recorder collects the spans and events of one observed run. A nil
// Recorder is the disabled recorder: every method (and every method of
// the Lanes and Spans it hands out) no-ops without allocating.
type Recorder struct {
	start   time.Time
	metrics *Registry

	mu       sync.Mutex
	events   []event
	procs    map[string]*proc
	nextPid  int
	eventLog *Log
}

// proc tracks one trace process and its named thread lanes.
type proc struct {
	pid     int
	tids    map[string]int
	nextTid int
}

// NewRecorder returns an empty recorder whose wall-clock zero is now.
func NewRecorder() *Recorder {
	return &Recorder{
		start:   time.Now(),
		metrics: NewRegistry(),
		procs:   map[string]*proc{},
		nextPid: 1,
	}
}

// Registry returns the recorder's metrics registry; nil for a nil
// recorder, which is itself a valid disabled registry.
func (r *Recorder) Registry() *Registry {
	if r == nil {
		return nil
	}
	return r.metrics
}

// Lane is the (process, thread) identity spans are recorded under. The
// zero Lane (from a nil Recorder) is disabled.
type Lane struct {
	r   *Recorder
	pid int
	tid int
}

// Lane resolves (creating on first use) the lane for a process and
// thread name, emitting the process_name/thread_name metadata events
// that label the Perfetto tracks.
func (r *Recorder) Lane(process, thread string) Lane {
	if r == nil {
		return Lane{}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	p, ok := r.procs[process]
	if !ok {
		p = &proc{pid: r.nextPid, tids: map[string]int{}, nextTid: 1}
		r.nextPid++
		r.procs[process] = p
		r.events = append(r.events, event{
			Name: "process_name", Ph: "M", Pid: p.pid,
			Args: map[string]any{"name": process},
		})
	}
	tid, ok := p.tids[thread]
	if !ok {
		tid = p.nextTid
		p.nextTid++
		p.tids[thread] = tid
		r.events = append(r.events, event{
			Name: "thread_name", Ph: "M", Pid: p.pid, Tid: tid,
			Args: map[string]any{"name": thread},
		})
	}
	return Lane{r: r, pid: p.pid, tid: tid}
}

// Span is an in-progress wall-clock span. A nil *Span (from a disabled
// Lane) is valid: Child returns nil and End no-ops.
type Span struct {
	lane   Lane
	name   string
	parent string
	start  time.Time
}

// Start begins a wall-clock span on the lane. Disabled lanes return nil
// without allocating.
func (l Lane) Start(name string) *Span {
	if l.r == nil {
		return nil
	}
	return &Span{lane: l, name: name, start: time.Now()}
}

// Child begins a sub-span on the same lane; the parent's name is
// recorded in the child's args. Nesting also shows structurally in
// Perfetto, which stacks overlapping X events on one thread track.
func (s *Span) Child(name string) *Span {
	if s == nil {
		return nil
	}
	return &Span{lane: s.lane, name: name, parent: s.name, start: time.Now()}
}

// End records the span as a ph:"X" complete event, attaching attrs.
func (s *Span) End(attrs ...Attr) {
	if s == nil {
		return
	}
	end := time.Now()
	r := s.lane.r
	args := argsMap(attrs)
	if s.parent != "" {
		if args == nil {
			args = map[string]any{}
		}
		args["parent"] = s.parent
	}
	r.add(event{
		Name: s.name, Ph: "X",
		Ts:  micros(s.start.Sub(r.start)),
		Dur: micros(end.Sub(s.start)),
		Pid: s.lane.pid, Tid: s.lane.tid,
		Args: args,
	})
}

// Complete records a finished span at explicit simulated times (in
// seconds): the bridge from the event engine's clock to trace events.
func (l Lane) Complete(name string, startSec, durSec float64, attrs ...Attr) {
	if l.r == nil {
		return
	}
	l.r.add(event{
		Name: name, Ph: "X",
		Ts: startSec * 1e6, Dur: durSec * 1e6,
		Pid: l.pid, Tid: l.tid,
		Args: argsMap(attrs),
	})
}

// InstantAt records a zero-duration thread-scoped marker at an explicit
// simulated time (in seconds) — the marker counterpart of Complete.
func (l Lane) InstantAt(name string, atSec float64, attrs ...Attr) {
	if l.r == nil {
		return
	}
	l.r.add(event{
		Name: name, Ph: "i", S: "t",
		Ts:  atSec * 1e6,
		Pid: l.pid, Tid: l.tid,
		Args: argsMap(attrs),
	})
}

// NumEvents returns how many events (including lane metadata) have been
// recorded; zero for a nil recorder.
func (r *Recorder) NumEvents() int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.events)
}

// WriteTrace emits the recorded events as Chrome/Perfetto trace-event
// JSON: an object with a traceEvents array, loadable directly in
// https://ui.perfetto.dev or chrome://tracing. Events are ordered
// metadata-first, then by (pid, tid, ts, name), so the output is
// deterministic for a deterministic recording.
func (r *Recorder) WriteTrace(w io.Writer) error {
	var evs []event
	if r != nil {
		r.mu.Lock()
		evs = make([]event, len(r.events))
		copy(evs, r.events)
		r.mu.Unlock()
	}
	sort.SliceStable(evs, func(i, j int) bool {
		a, b := evs[i], evs[j]
		if am, bm := a.Ph == "M", b.Ph == "M"; am != bm {
			return am
		}
		if a.Pid != b.Pid {
			return a.Pid < b.Pid
		}
		if a.Tid != b.Tid {
			return a.Tid < b.Tid
		}
		if a.Ts != b.Ts {
			return a.Ts < b.Ts
		}
		return a.Name < b.Name
	})
	if evs == nil {
		evs = []event{}
	}
	return json.NewEncoder(w).Encode(map[string]any{
		"traceEvents":     evs,
		"displayTimeUnit": "ms",
	})
}

// add appends one event under the recorder lock.
func (r *Recorder) add(e event) {
	r.mu.Lock()
	r.events = append(r.events, e)
	r.mu.Unlock()
}

// argsMap converts attrs to a trace-event args object (nil when empty).
func argsMap(attrs []Attr) map[string]any {
	if len(attrs) == 0 {
		return nil
	}
	m := make(map[string]any, len(attrs))
	for _, a := range attrs {
		m[a.Key] = a.Value
	}
	return m
}

// micros converts a duration to fractional trace-event microseconds.
func micros(d time.Duration) float64 {
	return float64(d) / float64(time.Microsecond)
}
