package sim

import (
	"math"
	"reflect"
	"testing"
	"testing/quick"
)

func uniformTasks(n int, sample, extract, train Seconds) []Task {
	tasks := make([]Task, n)
	for i := range tasks {
		tasks[i] = Task{Sample: sample, Extract: extract, Train: train}
	}
	return tasks
}

func TestProduceSingleProducerSerializes(t *testing.T) {
	tasks := uniformTasks(4, 1, 0, 0)
	finish := Produce(tasks, 1, 0)
	for i, task := range tasks {
		if want := Seconds(i + 1); task.Ready != want {
			t.Errorf("task %d ready %v, want %v", i, task.Ready, want)
		}
	}
	if finish[0] != 4 {
		t.Errorf("producer finish %v, want 4", finish[0])
	}
}

func TestProduceBalances(t *testing.T) {
	tasks := uniformTasks(8, 1, 0, 0)
	finish := Produce(tasks, 4, 0)
	for p, f := range finish {
		if f != 2 {
			t.Errorf("producer %d finish %v, want 2", p, f)
		}
	}
}

func TestProduceStartOffset(t *testing.T) {
	tasks := uniformTasks(2, 1, 0, 0)
	Produce(tasks, 2, 10)
	if tasks[0].Ready != 11 || tasks[1].Ready != 11 {
		t.Errorf("ready %v/%v, want 11/11", tasks[0].Ready, tasks[1].Ready)
	}
}

func TestConsumeSingleTrainerSerial(t *testing.T) {
	tasks := uniformTasks(5, 0, 1, 2)
	res := Consume(tasks, ConsumeOptions{NumTrainers: 1, Pipelined: false})
	if want := Seconds(5 * 3); res.Makespan != want {
		t.Errorf("makespan %v, want %v", res.Makespan, want)
	}
}

func TestConsumePipeliningOverlaps(t *testing.T) {
	tasks := uniformTasks(10, 0, 1, 1)
	serial := Consume(uniformTasks(10, 0, 1, 1), ConsumeOptions{NumTrainers: 1, Pipelined: false})
	piped := Consume(tasks, ConsumeOptions{NumTrainers: 1, Pipelined: true})
	if piped.Makespan >= serial.Makespan {
		t.Errorf("pipelined %v not faster than serial %v", piped.Makespan, serial.Makespan)
	}
	// With equal extract and train, the pipeline is ~2x: 10 trains back
	// to back after one fill step.
	if want := Seconds(11); math.Abs(piped.Makespan-want) > 1e-9 {
		t.Errorf("pipelined makespan %v, want %v", piped.Makespan, want)
	}
}

func TestConsumeScalesWithTrainers(t *testing.T) {
	mk := func(n int) Seconds {
		return Consume(uniformTasks(12, 0, 0.1, 1), ConsumeOptions{NumTrainers: n, Pipelined: true}).Makespan
	}
	one, four := mk(1), mk(4)
	if four >= one/2 {
		t.Errorf("4 trainers %v not much faster than 1 %v", four, one)
	}
}

func TestConsumeRespectsReadyTimes(t *testing.T) {
	tasks := uniformTasks(3, 0, 0, 1)
	tasks[2].Ready = 100
	res := Consume(tasks, ConsumeOptions{NumTrainers: 2, Pipelined: true})
	if res.Makespan < 101 {
		t.Errorf("makespan %v ignores late task", res.Makespan)
	}
}

func TestSyncBarrierCouplesStragglers(t *testing.T) {
	// Two trainers, one round has a 10x straggler: the barrier delays
	// the next round's training on both.
	tasks := []Task{
		{Train: 10}, {Train: 1}, // round 1
		{Train: 1}, {Train: 1}, // round 2
	}
	syncRes := Consume(append([]Task(nil), tasks...), ConsumeOptions{NumTrainers: 2, Sync: true, Pipelined: true})
	asyncRes := Consume(append([]Task(nil), tasks...), ConsumeOptions{NumTrainers: 2, Sync: false, Pipelined: true})
	if syncRes.Makespan < 11 {
		t.Errorf("sync makespan %v, want >= 11 (straggler + barrier)", syncRes.Makespan)
	}
	if asyncRes.Makespan > syncRes.Makespan {
		t.Errorf("async %v slower than sync %v", asyncRes.Makespan, syncRes.Makespan)
	}
}

func TestTrainUnitSerializedPerConsumer(t *testing.T) {
	// One trainer, zero extract: trains must serialize even when all
	// tasks are ready at time zero (regression test for the selection
	// bug where tasks piled onto one consumer "in parallel").
	tasks := uniformTasks(4, 0, 0, 1)
	res := Consume(tasks, ConsumeOptions{NumTrainers: 1, Sync: true, Pipelined: true})
	if res.Makespan < 4 {
		t.Errorf("makespan %v < 4: train unit not serialized", res.Makespan)
	}
}

func TestWorkSpreadsAcrossTrainers(t *testing.T) {
	tasks := uniformTasks(8, 0, 0.01, 1)
	res := Consume(tasks, ConsumeOptions{NumTrainers: 4, Pipelined: true})
	for i, busy := range res.TrainerBusy {
		if busy < 1.5 { // each of 4 trainers should take ~2 tasks
			t.Errorf("trainer %d busy %v, want ~2", i, busy)
		}
	}
}

func TestStandbyOnlyModeTakesEverything(t *testing.T) {
	tasks := uniformTasks(6, 0, 1, 1)
	res := Consume(tasks, ConsumeOptions{
		NumTrainers:      0,
		Pipelined:        true,
		StandbyAvailable: []Seconds{5},
	})
	if res.TasksByStandby != 6 {
		t.Errorf("standby took %d tasks, want 6", res.TasksByStandby)
	}
	if res.Makespan < 5 {
		t.Errorf("makespan %v ignores standby availability", res.Makespan)
	}
}

func TestStandbyProfitGating(t *testing.T) {
	// Plenty of trainers and a tiny queue: the standby must never fire.
	tasks := uniformTasks(4, 0, 0, 1)
	res := Consume(tasks, ConsumeOptions{
		NumTrainers:      4,
		Pipelined:        true,
		StandbyAvailable: []Seconds{0},
		TrainerTaskTime:  1,
		StandbyTaskTime:  10, // P = M_r*T_t/N_t - T_t' = 4/4 - 10 < 0
	})
	if res.TasksByStandby != 0 {
		t.Errorf("standby fired %d times despite negative profit", res.TasksByStandby)
	}
	// A long queue against one trainer: the standby must help.
	tasks = uniformTasks(20, 0, 0, 1)
	res = Consume(tasks, ConsumeOptions{
		NumTrainers:      1,
		Pipelined:        true,
		StandbyAvailable: []Seconds{0},
		TrainerTaskTime:  1,
		StandbyTaskTime:  1.5,
	})
	if res.TasksByStandby == 0 {
		t.Error("standby never fired despite positive profit")
	}
}

func TestStandbyUsesStandbyExtract(t *testing.T) {
	tasks := uniformTasks(1, 0, 1, 1)
	tasks[0].StandbyExtract = 5
	res := Consume(tasks, ConsumeOptions{NumTrainers: 0, StandbyAvailable: []Seconds{0}, Pipelined: true})
	if want := Seconds(6); res.Makespan != want {
		t.Errorf("makespan %v, want %v (standby extract 5 + train 1)", res.Makespan, want)
	}
}

func TestRunEpochEndToEnd(t *testing.T) {
	tasks := uniformTasks(10, 1, 0.1, 0.5)
	res := RunEpoch(tasks, 2, ConsumeOptions{NumTrainers: 3, Sync: true, Pipelined: true})
	// Lower bound: the samplers need 5 time units to produce everything,
	// plus at least one task's extract+train.
	if res.Makespan < 5.6 {
		t.Errorf("makespan %v below producer lower bound", res.Makespan)
	}
}

// TestRunEpochPreStaged pins the single-phase entry point: with no
// Samplers, RunEpoch consumes the tasks exactly as Consume does.
func TestRunEpochPreStaged(t *testing.T) {
	opts := ConsumeOptions{NumTrainers: 2, Pipelined: true, Trace: true}
	tasks := uniformTasks(6, 0, 0.1, 0.5)
	tasks[3].Ready = 0.2
	want := Consume(append([]Task(nil), tasks...), opts)
	if got := RunEpoch(tasks, 0, opts); !reflect.DeepEqual(got, want) {
		t.Errorf("RunEpoch(tasks, 0) = %+v, want Consume's %+v", got, want)
	}
}

func TestRunEpochWiresStandbyToProducers(t *testing.T) {
	tasks := uniformTasks(10, 1, 0.1, 3)
	opts := ConsumeOptions{
		NumTrainers:      1,
		Pipelined:        true,
		StandbyAvailable: []Seconds{}, // enable switching
		TrainerTaskTime:  3.1,
		StandbyTaskTime:  3.2,
	}
	res := RunEpoch(tasks, 1, opts)
	if res.TasksByStandby == 0 {
		t.Error("standby trainer never joined despite a backed-up queue")
	}
}

func TestMakespanLowerBoundProperty(t *testing.T) {
	// Makespan can never beat total train work divided by trainers.
	if err := quick.Check(func(nRaw, tRaw uint8) bool {
		n := int(nRaw%30) + 1
		nt := int(tRaw%4) + 1
		tasks := uniformTasks(n, 0, 0.1, 1)
		res := Consume(tasks, ConsumeOptions{NumTrainers: nt, Pipelined: true})
		lower := float64(n) * 1.0 / float64(nt)
		return res.Makespan >= lower-1e-9
	}, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestSyncNeverFasterThanAsyncProperty(t *testing.T) {
	if err := quick.Check(func(seed uint8) bool {
		n := int(seed%20) + 4
		mk := func() []Task {
			tasks := make([]Task, n)
			for i := range tasks {
				tasks[i] = Task{Extract: 0.1, Train: 0.5 + float64((i*7+int(seed))%5)}
			}
			return tasks
		}
		syn := Consume(mk(), ConsumeOptions{NumTrainers: 3, Sync: true, Pipelined: true})
		asy := Consume(mk(), ConsumeOptions{NumTrainers: 3, Sync: false, Pipelined: true})
		return syn.Makespan >= asy.Makespan-1e-9
	}, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestConsumePanicsWithoutConsumers(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Consume accepted zero consumers")
		}
	}()
	Consume(uniformTasks(1, 0, 0, 1), ConsumeOptions{})
}

func TestTrainerSlowdown(t *testing.T) {
	mk := func(slow []float64, sync bool) Seconds {
		tasks := uniformTasks(16, 0, 0.05, 1)
		return Consume(tasks, ConsumeOptions{
			NumTrainers:     4,
			Sync:            sync,
			Pipelined:       true,
			TrainerSlowdown: slow,
		}).Makespan
	}
	base := mk(nil, false)
	asyncSlow := mk([]float64{4}, false)
	syncSlow := mk([]float64{4}, true)
	if asyncSlow <= base {
		t.Errorf("slowdown had no cost: %v vs %v", asyncSlow, base)
	}
	if syncSlow <= asyncSlow {
		t.Errorf("sync %v should suffer the straggler more than async %v", syncSlow, asyncSlow)
	}
	// Async load balancing: the slowed trainer should take fewer tasks.
	tasks := uniformTasks(40, 0, 0.01, 1)
	res := Consume(tasks, ConsumeOptions{
		NumTrainers:     2,
		Pipelined:       true,
		TrainerSlowdown: []float64{5},
		Trace:           true,
	})
	counts := map[int]int{}
	for _, rec := range res.Timeline {
		counts[rec.Consumer]++
	}
	if counts[0] >= counts[1] {
		t.Errorf("slowed trainer took %d tasks vs fast trainer %d", counts[0], counts[1])
	}
}
