// Package fault provides deterministic, seed-keyed fault plans for the
// factored runtime: GPU crashes at simulated times, transient slowdown
// windows, PCIe-link degradation, global-queue stalls, and allocation
// failures injected into the device.GPU ledger. A Plan is data, not
// behavior — the sim engine, the scheduler and the memory planner each
// consume their slice of it — so the same plan composes with every
// design, and the same seed plus the same plan reproduces a bit-identical
// Report.
package fault

import (
	"fmt"
	"math"
	"strings"

	"gnnlab/internal/device"
	"gnnlab/internal/rng"
	"gnnlab/internal/sim"
)

// Kind enumerates the injectable fault classes.
type Kind int

const (
	// KindTrainerCrash kills consumer Trainer at simulated time At in
	// epoch Epoch; its in-flight task re-enters the global queue. Recover
	// > At revives it then; otherwise the loss is permanent and the
	// flexible scheduler may reallocate the surviving GPUs.
	KindTrainerCrash Kind = iota
	// KindSlowdown opens a transient slowdown window [At, End) with
	// multiplier Factor on consumer Trainer (a co-tenant burst).
	KindSlowdown
	// KindPCIeDegrade opens a window [At, End) in which every Extract
	// stage (the host→GPU feature path) stretches by Factor, machine-wide.
	KindPCIeDegrade
	// KindQueueStall opens a window [At, End) in which no task may leave
	// the global queue (dequeue starts are pushed to the window end).
	KindQueueStall
	// KindAllocFail vetoes GPU ledger allocations whose label contains
	// Label (empty matches every label) during memory planning, forcing a
	// deterministic OOM outcome. Epoch and times are ignored: planning
	// happens once per run.
	KindAllocFail
)

// String names the kind for traces and error messages.
func (k Kind) String() string {
	switch k {
	case KindTrainerCrash:
		return "trainer-crash"
	case KindSlowdown:
		return "slowdown"
	case KindPCIeDegrade:
		return "pcie-degrade"
	case KindQueueStall:
		return "queue-stall"
	case KindAllocFail:
		return "alloc-fail"
	default:
		return fmt.Sprintf("fault.Kind(%d)", int(k))
	}
}

// Event is one planned fault. Which fields matter depends on Kind; see
// the Kind constants.
type Event struct {
	Kind    Kind
	Epoch   int     // epoch the event fires in
	Trainer int     // consumer index (crash, slowdown)
	At      float64 // simulated seconds into the epoch
	End     float64 // window end (slowdown, pcie-degrade, queue-stall)
	Factor  float64 // duration multiplier (slowdown, pcie-degrade)
	Recover float64 // crash recovery time; <= At means permanent
	Label   string  // alloc-fail: ledger-label substring to veto
}

// permanent reports whether a crash event never recovers.
func (e Event) permanent() bool {
	return e.Kind == KindTrainerCrash && !(e.Recover > e.At)
}

// Plan is a deterministic fault plan: the seed that generated it (zero
// for hand-written plans) and its events. A nil *Plan injects nothing;
// every method is nil-safe.
type Plan struct {
	Seed   uint64
	Events []Event
}

// Empty reports whether the plan injects nothing.
func (p *Plan) Empty() bool { return p == nil || len(p.Events) == 0 }

// Validate rejects malformed events: negative epochs or times, NaN or
// infinite times, non-positive factors, windows that never open.
func (p *Plan) Validate() error {
	if p == nil {
		return nil
	}
	for i, e := range p.Events {
		bad := func(format string, args ...any) error {
			return fmt.Errorf("fault: event %d (%s): %s", i, e.Kind, fmt.Sprintf(format, args...))
		}
		if e.Kind < KindTrainerCrash || e.Kind > KindAllocFail {
			return bad("unknown kind")
		}
		if e.Kind == KindAllocFail {
			continue
		}
		if e.Epoch < 0 {
			return bad("negative epoch %d", e.Epoch)
		}
		if e.Trainer < 0 && (e.Kind == KindTrainerCrash || e.Kind == KindSlowdown) {
			return bad("negative trainer %d", e.Trainer)
		}
		for _, v := range []float64{e.At, e.End, e.Factor, e.Recover} {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return bad("non-finite field in %+v", e)
			}
		}
		if e.At < 0 {
			return bad("negative time %v", e.At)
		}
		switch e.Kind {
		case KindSlowdown, KindPCIeDegrade:
			if e.Factor <= 0 {
				return bad("factor %v must be positive", e.Factor)
			}
			fallthrough
		case KindQueueStall:
			if e.End <= e.At {
				return bad("window [%v, %v) never opens", e.At, e.End)
			}
		}
	}
	return nil
}

// SimFaults converts the events that fire *in* epoch to the sim engine's
// fault set; nil when the epoch has none. Use this when earlier permanent
// crashes are already reflected elsewhere (the scheduler reallocated the
// surviving GPUs).
func (p *Plan) SimFaults(epoch int) *sim.Faults {
	if p == nil {
		return nil
	}
	f := &sim.Faults{}
	for _, e := range p.Events {
		if e.Kind == KindAllocFail || e.Epoch != epoch {
			continue
		}
		switch e.Kind {
		case KindTrainerCrash:
			f.Crashes = append(f.Crashes, sim.Crash{Consumer: e.Trainer, At: e.At, RecoverAt: e.Recover})
		case KindSlowdown:
			f.Slowdowns = append(f.Slowdowns, sim.ConsumerWindow{
				Consumer: e.Trainer,
				Window:   sim.Window{Start: e.At, End: e.End, Factor: e.Factor},
			})
		case KindPCIeDegrade:
			f.ExtractDegrade = append(f.ExtractDegrade, sim.Window{Start: e.At, End: e.End, Factor: e.Factor})
		case KindQueueStall:
			f.QueueStalls = append(f.QueueStalls, sim.Window{Start: e.At, End: e.End})
		}
	}
	if len(f.Crashes) == 0 && len(f.Slowdowns) == 0 && len(f.ExtractDegrade) == 0 && len(f.QueueStalls) == 0 {
		return nil
	}
	return f
}

// SimFaultsPersistent is SimFaults plus the carried-forward effect of
// permanent crashes from earlier epochs: consumers lost before this epoch
// are dead from its start (crash at time zero). Use this when the
// allocation is fixed, so a lost GPU stays lost.
func (p *Plan) SimFaultsPersistent(epoch int) *sim.Faults {
	if p == nil {
		return nil
	}
	f := p.SimFaults(epoch)
	for _, e := range p.Events {
		if e.Epoch < epoch && e.permanent() {
			if f == nil {
				f = &sim.Faults{}
			}
			f.Crashes = append(f.Crashes, sim.Crash{Consumer: e.Trainer, At: 0})
		}
	}
	return f
}

// PermanentCrashesBefore counts the distinct consumers permanently lost
// in epochs strictly before epoch — the `failed` input of
// sched.Reallocate.
func (p *Plan) PermanentCrashesBefore(epoch int) int {
	if p == nil {
		return 0
	}
	lost := map[int]bool{}
	for _, e := range p.Events {
		if e.Epoch < epoch && e.permanent() {
			lost[e.Trainer] = true
		}
	}
	return len(lost)
}

// InjectedWithin counts the events that fire within the first `epochs`
// epochs (alloc-fail events always count: planning precedes epoch zero) —
// the value of the fault.injected counter for a run of that length.
func (p *Plan) InjectedWithin(epochs int) int {
	if p == nil {
		return 0
	}
	n := 0
	for _, e := range p.Events {
		if e.Kind == KindAllocFail || e.Epoch < epochs {
			n++
		}
	}
	return n
}

// AllocFault builds the device ledger hook from the plan's alloc-fail
// events: allocations whose label contains any event's Label (empty
// matches all) fail with device.ErrInjected. Nil when the plan has none.
func (p *Plan) AllocFault() device.AllocFault {
	if p == nil {
		return nil
	}
	var labels []string
	for _, e := range p.Events {
		if e.Kind == KindAllocFail {
			labels = append(labels, e.Label)
		}
	}
	if len(labels) == 0 {
		return nil
	}
	return func(label string, bytes int64) bool {
		for _, l := range labels {
			if strings.Contains(label, l) {
				return true
			}
		}
		return false
	}
}

// GenOptions sizes a generated plan.
type GenOptions struct {
	// Epochs is how many epochs events spread over (default 1).
	Epochs int
	// EpochTime is the expected epoch makespan in simulated seconds —
	// the horizon event times are placed within (default 1).
	EpochTime float64
	// Trainers is the consumer count events may target (default 1).
	// Permanent crashes are capped at Trainers−1 distinct consumers so
	// at least one survivor can always drain the queue.
	Trainers int
	// AllowAllocFail lets the generator emit KindAllocFail events
	// (which force OOM outcomes); off by default so generated plans
	// degrade runs rather than abort them.
	AllowAllocFail bool
}

func (o GenOptions) withDefaults() GenOptions {
	if o.Epochs <= 0 {
		o.Epochs = 1
	}
	if !(o.EpochTime > 0) {
		o.EpochTime = 1
	}
	if o.Trainers <= 0 {
		o.Trainers = 1
	}
	return o
}

// Generate builds a deterministic plan of n events from seed: the same
// (seed, n, options) always yields the same plan. Kinds cycle through
// transient crashes, slowdown windows, PCIe degradation, queue stalls and
// permanent crashes (budgeted to leave a survivor).
func Generate(seed uint64, n int, o GenOptions) *Plan {
	o = o.withDefaults()
	r := rng.New(seed)
	p := &Plan{Seed: seed}
	permLost := map[int]bool{}
	for i := 0; i < n; i++ {
		e := Event{
			Epoch: r.Intn(o.Epochs),
			At:    o.EpochTime * (0.1 + 0.7*r.Float64()),
		}
		span := o.EpochTime * (0.05 + 0.15*r.Float64())
		switch i % 5 {
		case 0: // transient crash
			e.Kind = KindTrainerCrash
			e.Trainer = r.Intn(o.Trainers)
			e.Recover = e.At + span
		case 1:
			e.Kind = KindSlowdown
			e.Trainer = r.Intn(o.Trainers)
			e.End = e.At + 2*span
			e.Factor = 1.5 + 2*r.Float64()
		case 2:
			e.Kind = KindPCIeDegrade
			e.End = e.At + 2*span
			e.Factor = 1.5 + r.Float64()
		case 3:
			e.Kind = KindQueueStall
			e.End = e.At + span
		case 4: // permanent crash while the survivor budget allows
			e.Kind = KindTrainerCrash
			e.Trainer = r.Intn(o.Trainers)
			if permLost[e.Trainer] || len(permLost) >= o.Trainers-1 {
				e.Recover = e.At + span // budget spent: degrade to transient
			} else {
				permLost[e.Trainer] = true
			}
		}
		if o.AllowAllocFail && i%11 == 10 {
			// "train-ws" is allocated by every design's memory planner, so
			// the veto reliably forces an OOM outcome.
			e = Event{Kind: KindAllocFail, Label: "train-ws"}
		}
		p.Events = append(p.Events, e)
	}
	return p
}
