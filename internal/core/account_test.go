package core

import (
	"bytes"
	"reflect"
	"strings"
	"testing"

	"gnnlab/internal/fault"
	"gnnlab/internal/gen"
	"gnnlab/internal/obs"
	"gnnlab/internal/workload"
)

// TestTracedRunBuildsAccount: every design that captures a timeline also
// carries its exact time accounting, and the account's internal
// invariants (lane partition, critical-path tiling) hold on real runs.
func TestTracedRunBuildsAccount(t *testing.T) {
	d, mem, ms := tinyDataset(t, gen.PresetPA, 16)
	w := scaledSpec(workload.GCN, 16)
	for _, cfg := range []Config{GNNLab(w, 4), TSOTA(w, 4), DGL(w, 4), PyG(w, 4)} {
		cfg.Trace = true
		rep := runScaled(t, d, cfg, mem, ms)
		if rep.Timeline == nil {
			t.Fatalf("%s: traced run captured no timeline", cfg.Name)
		}
		if rep.Account == nil {
			t.Fatalf("%s: traced run built no account", cfg.Name)
		}
		if err := rep.Account.CheckInvariants(); err != nil {
			t.Errorf("%s: %v", cfg.Name, err)
		}
		if rep.Bottleneck == nil || rep.Bottleneck.Binding == "" {
			t.Errorf("%s: missing bottleneck verdict", cfg.Name)
		}
		if rep.Account.Makespan <= 0 {
			t.Errorf("%s: account makespan %v", cfg.Name, rep.Account.Makespan)
		}
	}

	// Batch mode never traces: no timeline, no account — and that is not
	// an error.
	agl := AGL(w, 4)
	agl.Trace = true
	rep := runScaled(t, d, agl, mem, ms)
	if rep.Timeline != nil || rep.Account != nil || rep.Bottleneck != nil {
		t.Errorf("batch mode unexpectedly traced: timeline %v account %v", rep.Timeline != nil, rep.Account != nil)
	}
}

// TestAccountUnderFaultsDeterministicAcrossWorkers: the account of a
// traced, fault-injected run is bit-identical at any GOMAXPROCS, and its
// invariants survive crashes and requeues.
func TestAccountUnderFaultsDeterministicAcrossWorkers(t *testing.T) {
	d, mem, ms := tinyDataset(t, gen.PresetPA, 16)
	w := scaledSpec(workload.GCN, 16)
	clean := runWithFaults(t, d, GNNLab(w, 4), mem, ms, nil)
	plan := fault.Generate(0xFA17, 8, fault.GenOptions{
		Epochs:    2,
		EpochTime: clean.EpochTime,
		Trainers:  clean.Alloc.Trainers,
	})
	at := func(procs int) *Report {
		setProcs(t, procs)
		cfg := GNNLab(w, 4)
		cfg.Trace = true
		return runWithFaults(t, d, cfg, mem, ms, plan)
	}
	base := at(1)
	if base.Account == nil {
		t.Fatal("faulted traced run built no account")
	}
	if err := base.Account.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	for _, procs := range procsCounts()[1:] {
		got := at(procs)
		if !reflect.DeepEqual(base.Account, got.Account) {
			t.Errorf("account differs between GOMAXPROCS 1 and %d", procs)
		}
		if !reflect.DeepEqual(base.Bottleneck, got.Bottleneck) {
			t.Errorf("bottleneck differs between GOMAXPROCS 1 and %d", procs)
		}
	}
}

// TestReportBitIdenticalWithEventLog is the observe-only guarantee for
// the structured event log: attaching a recorder with a JSONL event log
// changes nothing in the Report — including the account.
func TestReportBitIdenticalWithEventLog(t *testing.T) {
	d, mem, ms := tinyDataset(t, gen.PresetPA, 16)
	w := scaledSpec(workload.GCN, 16)
	plan := &fault.Plan{Events: []fault.Event{
		{Kind: fault.KindTrainerCrash, Epoch: 0, Trainer: 0, At: 0.05},
	}}
	mk := func(rec *obs.Recorder) *Report {
		cfg := GNNLab(w, 4)
		cfg.Trace = true
		cfg.Obs = rec
		return runWithFaults(t, d, cfg, mem, ms, plan)
	}
	plain := mk(nil)
	rec := obs.NewRecorder()
	var buf bytes.Buffer
	rec.SetEventLog(obs.NewLog(&buf, obs.LevelDebug))
	logged := mk(rec)
	if !reflect.DeepEqual(plain, logged) {
		t.Errorf("event log perturbed the report:\nplain  %v\nlogged %v", plain, logged)
	}
	if buf.Len() == 0 {
		t.Fatal("event log captured nothing")
	}
	for _, want := range []string{`"event":"fault.crash"`, `"event":"core.report"`, `"event":"core.bottleneck"`} {
		if !strings.Contains(buf.String(), want) {
			t.Errorf("event log missing %s:\n%s", want, buf.String())
		}
	}
}

// TestEventLogRecordsReallocation: a permanent trainer loss that makes
// the flexible scheduler re-split shows up as a sched.reallocate event.
func TestEventLogRecordsReallocation(t *testing.T) {
	d, mem, ms := tinyDataset(t, gen.PresetPA, 16)
	w := scaledSpec(workload.GCN, 16)
	clean := runWithFaults(t, d, GNNLab(w, 4), mem, ms, nil)
	plan := &fault.Plan{Events: []fault.Event{
		{Kind: fault.KindTrainerCrash, Epoch: 0, Trainer: 0, At: 0.25 * clean.EpochTime},
	}}
	rec := obs.NewRecorder()
	var buf bytes.Buffer
	rec.SetEventLog(obs.NewLog(&buf, obs.LevelWarn))
	cfg := GNNLab(w, 4)
	cfg.Obs = rec
	rep := runWithFaults(t, d, cfg, mem, ms, plan)
	if rep.Reallocations != 1 {
		t.Fatalf("Reallocations = %d, want 1", rep.Reallocations)
	}
	if !strings.Contains(buf.String(), `"event":"sched.reallocate"`) {
		t.Errorf("no sched.reallocate event:\n%s", buf.String())
	}
	// Warn-level log drops the info-level report events.
	if strings.Contains(buf.String(), `"event":"core.report"`) {
		t.Errorf("info event leaked through warn-level log:\n%s", buf.String())
	}
}

// TestAccountBottleneckGauges: a traced run with a recorder exports the
// account's attribution fractions as gauges.
func TestAccountBottleneckGauges(t *testing.T) {
	d, mem, ms := tinyDataset(t, gen.PresetPA, 16)
	w := scaledSpec(workload.GCN, 16)
	rec := obs.NewRecorder()
	cfg := GNNLab(w, 4)
	cfg.Trace = true
	cfg.Obs = rec
	rep := runScaled(t, d, cfg, mem, ms)
	if rep.Bottleneck == nil {
		t.Fatal("no bottleneck computed")
	}
	reg := rec.Registry()
	sum := reg.Gauge("account.sample_frac").Value() +
		reg.Gauge("account.extract_frac").Value() +
		reg.Gauge("account.train_frac").Value() +
		reg.Gauge("account.stall_frac").Value()
	if sum < 0.999 || sum > 1.001 {
		t.Errorf("attribution gauges sum to %v, want 1", sum)
	}
}
