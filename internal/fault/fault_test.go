package fault

import (
	"errors"
	"math"
	"reflect"
	"testing"

	"gnnlab/internal/device"
	"gnnlab/internal/sim"
)

func TestGenerateDeterministic(t *testing.T) {
	o := GenOptions{Epochs: 3, EpochTime: 12.5, Trainers: 4}
	a := Generate(42, 20, o)
	b := Generate(42, 20, o)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed produced different plans")
	}
	c := Generate(43, 20, o)
	if reflect.DeepEqual(a.Events, c.Events) {
		t.Fatal("different seeds produced identical plans")
	}
	if err := a.Validate(); err != nil {
		t.Fatalf("generated plan invalid: %v", err)
	}
	if len(a.Events) != 20 {
		t.Fatalf("want 20 events, got %d", len(a.Events))
	}
}

func TestGenerateLeavesASurvivor(t *testing.T) {
	for _, trainers := range []int{1, 2, 4} {
		p := Generate(7, 50, GenOptions{Epochs: 5, EpochTime: 10, Trainers: trainers})
		lost := map[int]bool{}
		for _, e := range p.Events {
			if e.permanent() {
				lost[e.Trainer] = true
			}
			if e.Trainer >= trainers {
				t.Fatalf("event targets trainer %d of %d", e.Trainer, trainers)
			}
		}
		if len(lost) >= trainers {
			t.Fatalf("%d trainers: all %d permanently lost", trainers, len(lost))
		}
	}
}

func TestSimFaultsSplitsByEpoch(t *testing.T) {
	p := &Plan{Events: []Event{
		{Kind: KindTrainerCrash, Epoch: 0, Trainer: 1, At: 2},             // permanent
		{Kind: KindTrainerCrash, Epoch: 1, Trainer: 0, At: 3, Recover: 5}, // transient
		{Kind: KindSlowdown, Epoch: 1, Trainer: 2, At: 1, End: 4, Factor: 2},
		{Kind: KindPCIeDegrade, Epoch: 0, At: 0, End: 1, Factor: 3},
		{Kind: KindQueueStall, Epoch: 2, At: 5, End: 6},
		{Kind: KindAllocFail, Label: "cache"},
	}}
	if err := p.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}

	f0 := p.SimFaults(0)
	if len(f0.Crashes) != 1 || len(f0.ExtractDegrade) != 1 || len(f0.Slowdowns) != 0 {
		t.Fatalf("epoch 0 faults wrong: %+v", f0)
	}
	f1 := p.SimFaults(1)
	if len(f1.Crashes) != 1 || len(f1.Slowdowns) != 1 {
		t.Fatalf("epoch 1 faults wrong: %+v", f1)
	}
	if got := f1.Crashes[0]; got != (sim.Crash{Consumer: 0, At: 3, RecoverAt: 5}) {
		t.Fatalf("epoch 1 crash wrong: %+v", got)
	}
	if p.SimFaults(3) != nil {
		t.Fatal("epoch with no events should give nil faults")
	}

	// Persistent view of epoch 1 carries epoch 0's permanent crash as a
	// dead-from-start consumer, but not the transient one.
	f1p := p.SimFaultsPersistent(1)
	if len(f1p.Crashes) != 2 {
		t.Fatalf("persistent epoch 1 crashes: %+v", f1p.Crashes)
	}
	if got := f1p.Crashes[1]; got != (sim.Crash{Consumer: 1, At: 0}) {
		t.Fatalf("carried crash wrong: %+v", got)
	}
	f2p := p.SimFaultsPersistent(2)
	if len(f2p.Crashes) != 1 || len(f2p.QueueStalls) != 1 {
		t.Fatalf("persistent epoch 2 wrong: %+v", f2p)
	}
}

func TestPermanentCrashesBefore(t *testing.T) {
	p := &Plan{Events: []Event{
		{Kind: KindTrainerCrash, Epoch: 0, Trainer: 1, At: 2},             // permanent
		{Kind: KindTrainerCrash, Epoch: 0, Trainer: 1, At: 4},             // same consumer
		{Kind: KindTrainerCrash, Epoch: 1, Trainer: 0, At: 1},             // permanent
		{Kind: KindTrainerCrash, Epoch: 1, Trainer: 2, At: 1, Recover: 2}, // transient
	}}
	for epoch, want := range []int{0, 1, 2, 2} {
		if got := p.PermanentCrashesBefore(epoch); got != want {
			t.Errorf("PermanentCrashesBefore(%d) = %d, want %d", epoch, got, want)
		}
	}
	if got := (*Plan)(nil).PermanentCrashesBefore(5); got != 0 {
		t.Errorf("nil plan: %d", got)
	}
}

func TestInjectedWithin(t *testing.T) {
	p := &Plan{Events: []Event{
		{Kind: KindQueueStall, Epoch: 0, At: 1, End: 2},
		{Kind: KindQueueStall, Epoch: 4, At: 1, End: 2},
		{Kind: KindAllocFail, Label: "x"},
	}}
	if got := p.InjectedWithin(2); got != 2 {
		t.Errorf("InjectedWithin(2) = %d, want 2 (epoch-0 stall + alloc-fail)", got)
	}
	if got := p.InjectedWithin(5); got != 3 {
		t.Errorf("InjectedWithin(5) = %d, want 3", got)
	}
}

func TestAllocFaultHook(t *testing.T) {
	p := &Plan{Events: []Event{{Kind: KindAllocFail, Label: "feature-cache"}}}
	g := device.NewGPU(0, 1000)
	g.InjectAllocFault(p.AllocFault())
	if err := g.Alloc("topology", 10); err != nil {
		t.Fatalf("unrelated label vetoed: %v", err)
	}
	if err := g.Alloc("feature-cache", 10); !errors.Is(err, device.ErrInjected) {
		t.Fatalf("want ErrInjected, got %v", err)
	}
	// A plan without alloc-fail events removes the hook.
	g.InjectAllocFault((&Plan{}).AllocFault())
	if err := g.Alloc("feature-cache", 10); err != nil {
		t.Fatalf("hook not removed: %v", err)
	}
	if (&Plan{}).AllocFault() != nil || (*Plan)(nil).AllocFault() != nil {
		t.Fatal("plans without alloc-fail events must give a nil hook")
	}
}

func TestValidateRejectsMalformed(t *testing.T) {
	bad := []Event{
		{Kind: Kind(99)},
		{Kind: KindTrainerCrash, Epoch: -1, At: 1},
		{Kind: KindTrainerCrash, Trainer: -2, At: 1},
		{Kind: KindTrainerCrash, At: math.NaN()},
		{Kind: KindSlowdown, At: 1, End: 2, Factor: 0},
		{Kind: KindSlowdown, At: 2, End: 1, Factor: 2},
		{Kind: KindQueueStall, At: 2, End: 2},
		{Kind: KindPCIeDegrade, At: 0, End: math.Inf(1), Factor: 2},
	}
	for _, e := range bad {
		if err := (&Plan{Events: []Event{e}}).Validate(); err == nil {
			t.Errorf("event %+v passed validation", e)
		}
	}
	if err := (*Plan)(nil).Validate(); err != nil {
		t.Errorf("nil plan: %v", err)
	}
}

func TestNilPlanIsEmpty(t *testing.T) {
	var p *Plan
	if !p.Empty() || p.SimFaults(0) != nil || p.SimFaultsPersistent(3) != nil || p.InjectedWithin(9) != 0 {
		t.Fatal("nil plan must be inert")
	}
}
