package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"time"
)

// span is one timed interval around a call into a layer. parent indexes
// the enclosing span of the same lane (-1 for a cycle's root), and every
// span of one minibatch, request batch or sweep config shares a cycle id.
type span struct {
	name       string
	parent     int32
	cycle      int32
	start, end time.Duration // since the recorder's zero
}

// recorder keeps spans in memory, one lane per goroutine so recording
// takes no lock, and writes them out once when the benchmark ends.
type recorder struct {
	t0    time.Time
	lanes []*lane
}

// lane is a single goroutine's span stack. Create every lane before the
// goroutines that use them start.
type lane struct {
	rec   *recorder
	name  string
	spans []span
	stack []int32
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

func (r *recorder) lane(name string) *lane {
	l := &lane{rec: r, name: name}
	r.lanes = append(r.lanes, l)
	return l
}

// begin opens a span under the lane's innermost open span. A nil lane
// records nothing, which is how warm-up passes run the traced code path
// without entering the statistics.
func (l *lane) begin(name string, cycle int) int32 {
	if l == nil {
		return -1
	}
	parent := int32(-1)
	if n := len(l.stack); n > 0 {
		parent = l.stack[n-1]
	}
	id := int32(len(l.spans))
	l.spans = append(l.spans, span{name: name, parent: parent, cycle: int32(cycle), start: time.Since(l.rec.t0)})
	l.stack = append(l.stack, id)
	return id
}

// end closes the innermost open span, which must be id.
func (l *lane) end(id int32) {
	if l == nil {
		return
	}
	n := len(l.stack)
	if n == 0 || l.stack[n-1] != id {
		panic(fmt.Sprintf("benchmark: span %d closed out of order on lane %s", id, l.name))
	}
	l.spans[id].end = time.Since(l.rec.t0)
	l.stack = l.stack[:n-1]
}

// time records fn as one span.
func (l *lane) time(name string, cycle int, fn func()) {
	id := l.begin(name, cycle)
	fn()
	l.end(id)
}

// selfSeconds returns, per span of the lane, its duration minus the part
// its child spans cover.
func (l *lane) selfSeconds() []float64 {
	self := make([]float64, len(l.spans))
	for i, s := range l.spans {
		d := (s.end - s.start).Seconds()
		self[i] += d
		if s.parent >= 0 {
			self[s.parent] -= d
		}
	}
	return self
}

// selfOf collects the self time of every closed span called name, in
// seconds, across lanes.
func (r *recorder) selfOf(name string) []float64 {
	var out []float64
	for _, l := range r.lanes {
		self := l.selfSeconds()
		for i, s := range l.spans {
			if s.name == name {
				out = append(out, self[i])
			}
		}
	}
	return out
}

// shares returns each span name's self time over the summed duration of
// the root spans called root — the traced cycle. Only descendants of
// those roots count, so the shares, the root's own self time included,
// sum to 1.
func (r *recorder) shares(root string) map[string]float64 {
	out := map[string]float64{}
	var total float64
	for _, l := range r.lanes {
		self := l.selfSeconds()
		under := make([]bool, len(l.spans))
		for i, s := range l.spans {
			switch {
			case s.parent < 0 && s.name == root:
				under[i] = true
				total += (s.end - s.start).Seconds()
			case s.parent >= 0:
				under[i] = under[s.parent] // parents precede children
			}
			if under[i] {
				out[s.name] += self[i]
			}
		}
	}
	if total > 0 {
		for k := range out {
			out[k] /= total
		}
	}
	return out
}

// writeTrace emits the spans as Chrome/Perfetto trace-event JSON
// (complete "X" events, microsecond timestamps, one thread per lane).
func (r *recorder) writeTrace(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	w.WriteString(`{"displayTimeUnit":"ms","traceEvents":[` + "\n")
	first := true
	sep := func() {
		if !first {
			w.WriteString(",\n")
		}
		first = false
	}
	micros := func(d time.Duration) string {
		return strconv.FormatFloat(float64(d.Nanoseconds())/1e3, 'f', 3, 64)
	}
	for tid, l := range r.lanes {
		sep()
		fmt.Fprintf(w, `{"name":"thread_name","ph":"M","pid":1,"tid":%d,"args":{"name":%q}}`, tid, l.name)
		for _, s := range l.spans {
			if s.end < s.start {
				continue // left open by an aborted run
			}
			sep()
			fmt.Fprintf(w, `{"name":%q,"ph":"X","pid":1,"tid":%d,"ts":%s,"dur":%s,"args":{"cycle":%d}}`,
				s.name, tid, micros(s.start), micros(s.end-s.start), s.cycle)
		}
	}
	w.WriteString("\n]}\n")
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
