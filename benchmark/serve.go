package main

import (
	"fmt"
	"runtime"
	"sync/atomic"
	"time"

	"gnnlab/internal/cache"
	"gnnlab/internal/feature"
	"gnnlab/internal/gen"
	"gnnlab/internal/nn"
	"gnnlab/internal/rng"
	"gnnlab/internal/sampling"
	"gnnlab/internal/serve"
	"gnnlab/internal/tensor"
	"gnnlab/internal/workload"
)

const (
	serveBatch = 64
	serveZipf  = 1.1
	// rerankEvery is serve.Options.RerankEvery's default, which the
	// workload leaves in place; the benchmark counts batches with it to
	// tell which Steps carried a rerank.
	rerankEvery = 64
	// The server's own per-request budget and admission queue are sized so
	// that it never sheds or expires a request: the deadline outlasts a run
	// and the queue holds ten seconds of arrivals. A stall of the host then
	// shows as answers later than serveLimit, a goodput miss, and never as
	// a failed operation, which the workload is not to have.
	serveDeadline = 120.0
	serveQueueCap = 1 << 16
)

func serveSpec() workload.Spec {
	return workload.Spec{Kind: workload.GraphSAGE, HiddenDim: 32, BatchSize: serveBatch}
}

func serveOptions(cfg config) serve.Options {
	return serve.Options{
		Spec: serveSpec(), BatchSize: serveBatch,
		Deadline: serveDeadline, QueueCap: serveQueueCap, CacheRatio: 0.1,
		Seed: cfg.seed | 1<<40,
	}
}

// served is a dataset with a live server over it.
type served struct {
	d   *gen.Dataset
	srv *serve.Server
}

func buildServed(cfg config, ln *lane) (served, error) {
	var s served
	var err error
	ln.time("gen.generate", 0, func() { s.d, err = gen.Generate(socialData(cfg, 128)) })
	if err != nil {
		return s, err
	}
	ln.time("serve.new", 0, func() { s.srv, err = serve.New(s.d, serveOptions(cfg)) })
	return s, err
}

// picks is the seeded request stream: vertices drawn Zipf over a seeded
// scatter of ids, so requests share seeds and neighbourhoods and the
// request-driven cache has something to learn.
type picks struct {
	r       *rng.Rand
	z       *rng.Zipf
	scatter []int32
}

func newPicks(cfg config, n int) *picks {
	r := rng.New(cfg.seed ^ 0x5E12BE)
	return &picks{r: r, z: rng.NewZipf(uint64(n), serveZipf), scatter: r.Perm(n)}
}

func (p *picks) next() int32 { return p.scatter[p.z.Draw(p.r)] }

// loadgen is the request source of one run: the seeded vertex stream and
// arrival process, which continue across rounds, and the count of served
// batches that tells which Steps carried a rerank.
type loadgen struct {
	cfg      config
	s        served
	picks    *picks
	arrivals *rng.Rand
	batches  int
}

func newLoadgen(cfg config, s served) *loadgen {
	return &loadgen{cfg: cfg, s: s, picks: newPicks(cfg, s.d.NumVertices()), arrivals: rng.New(cfg.seed ^ 0xA221FA1)}
}

// openLoop is one phase-A window: the generator goroutine submits a
// Poisson schedule at the workload's fixed rate whether or not the server
// keeps up, and one dispatcher goroutine loops Step. Latency runs from the
// instant a request was due to the return of the Step that completed it.
type openLoop struct {
	g      *loadgen
	due    []float64 // seconds since the window began
	vertex []int32

	// Written by the generator, then released to the dispatcher by
	// advancing published.
	sentAt    []float64
	outcome   []serve.Outcome
	ticket    []*serve.Ticket
	published atomic.Int64
	finished  atomic.Bool // every request has been sent

	// Written by the dispatcher.
	stepStart, doneAt []float64 // per admitted request
	expired           []bool
	steps             []stepRecord
	badTickets        int64
	resolved          int64
}

// stepRecord is one non-empty Step as the dispatcher saw it.
type stepRecord struct {
	dur       float64
	completed int
	rerank    bool
}

func (g *loadgen) newOpenLoop(seconds float64) *openLoop {
	o := &openLoop{g: g}
	rate := g.cfg.sz.serveRate
	for t := g.arrivals.ExpFloat64() / rate; t < seconds; t += g.arrivals.ExpFloat64() / rate {
		o.due = append(o.due, t)
		o.vertex = append(o.vertex, g.picks.next())
	}
	n := len(o.due)
	o.sentAt = make([]float64, n)
	o.outcome = make([]serve.Outcome, n)
	o.ticket = make([]*serve.Ticket, n)
	o.stepStart = make([]float64, n)
	o.doneAt = make([]float64, n)
	o.expired = make([]bool, n)
	return o
}

// run drives the window to completion: every request sent, every admitted
// ticket resolved and released. The server stays open.
func (o *openLoop) run(genLane, stepLane *lane) error {
	srv := o.g.s.srv
	t0 := time.Now()
	wake := make(chan struct{}, 1)
	errc := make(chan error, 1)
	go func() { errc <- o.dispatch(t0, wake, stepLane) }()
	for i, due := range o.due {
		now := time.Since(t0).Seconds()
		for now < due {
			time.Sleep(time.Duration((due - now) * float64(time.Second)))
			now = time.Since(t0).Seconds()
		}
		o.sentAt[i] = now
		id := genLane.begin("serve.submit", i)
		o.ticket[i], o.outcome[i] = srv.Submit(o.vertex[i])
		genLane.end(id)
		o.published.Store(int64(i + 1))
		select {
		case wake <- struct{}{}:
		default: // a wake-up is already pending
		}
	}
	o.finished.Store(true)
	select {
	case wake <- struct{}{}:
	default:
	}
	return <-errc
}

// dispatch loops Step. The admission queue is FIFO and the generator is
// its only producer, so a Step that completes n requests completed the
// next n admitted ones in send order: the dispatcher resolves them from
// the generator's arrays without a second hand-off.
func (o *openLoop) dispatch(t0 time.Time, wake <-chan struct{}, ln *lane) error {
	srv, classes := o.g.s.srv, o.g.s.d.NumClasses
	cursor := 0
	for {
		// Read before Step: an empty Step after the last send means drained.
		finished := o.finished.Load()
		start := time.Since(t0).Seconds()
		id := ln.begin("serve.step", len(o.steps))
		n, _, err := srv.Step()
		ln.end(id)
		end := time.Since(t0).Seconds()
		if err != nil {
			return err
		}
		if n == 0 {
			if finished {
				return nil
			}
			<-wake
			continue
		}
		servedNow := 0
		for left := n; left > 0; cursor++ {
			for int64(cursor) >= o.published.Load() {
				runtime.Gosched() // the generator is between Submit and publishing
			}
			if o.outcome[cursor] != serve.Admitted {
				continue
			}
			left--
			tk := o.ticket[cursor]
			o.stepStart[cursor], o.doneAt[cursor] = start, end
			o.expired[cursor] = tk.Expired
			if !tk.Done || tk.Vertex != o.vertex[cursor] ||
				(!tk.Expired && (tk.Class < 0 || int(tk.Class) >= classes)) {
				o.badTickets++
			}
			if !tk.Expired {
				servedNow++
			}
			srv.Release(tk)
			o.ticket[cursor] = nil
			o.resolved++
		}
		rec := stepRecord{dur: end - start, completed: n}
		if servedNow > 0 {
			o.g.batches++
			rec.rerank = o.g.batches%rerankEvery == 0
		}
		o.steps = append(o.steps, rec)
	}
}

// openLoopCounts is where a window's requests went.
type openLoopCounts struct {
	sent, admitted, shed, invalid, closed, served, expired, within int64
}

func (c *openLoopCounts) add(d openLoopCounts) {
	c.sent += d.sent
	c.admitted += d.admitted
	c.shed += d.shed
	c.invalid += d.invalid
	c.closed += d.closed
	c.served += d.served
	c.expired += d.expired
	c.within += d.within
}

// read returns the window's counts and, per served request, its latency
// and queue wait, and per sent request how late the generator sent it.
func (o *openLoop) read() (c openLoopCounts, latency, queueWait, late []float64) {
	for i, due := range o.due {
		c.sent++
		late = append(late, o.sentAt[i]-due)
		switch o.outcome[i] {
		case serve.Admitted:
			c.admitted++
		case serve.ShedQueueFull, serve.ShedDeadline:
			c.shed++
			continue
		case serve.Invalid:
			c.invalid++
			continue
		default:
			c.closed++
			continue
		}
		if o.expired[i] {
			c.expired++
			continue
		}
		c.served++
		lat := o.doneAt[i] - due
		latency = append(latency, lat)
		queueWait = append(queueWait, o.stepStart[i]-due)
		if lat <= o.g.cfg.sz.serveLimit {
			c.within++
		}
	}
	return c, latency, queueWait, late
}

// closedLoop is one phase-B slice: submit a full batch, Step, release,
// repeat for the given seconds. It returns requests served and sent and
// the seconds taken.
func (g *loadgen) closedLoop(seconds float64) (servedN, sent int64, elapsed float64, err error) {
	srv := g.s.srv
	tickets := make([]*serve.Ticket, 0, serveBatch)
	t0 := time.Now()
	for time.Since(t0).Seconds() < seconds {
		tickets = tickets[:0]
		for j := 0; j < serveBatch; j++ {
			sent++
			if tk, out := srv.Submit(g.picks.next()); out == serve.Admitted {
				tickets = append(tickets, tk)
			}
		}
		if len(tickets) == 0 {
			return 0, 0, 0, fmt.Errorf("server refused a whole batch")
		}
		if _, _, err := srv.Step(); err != nil {
			return 0, 0, 0, err
		}
		g.batches++
		for _, tk := range tickets {
			if tk.Done && !tk.Expired && tk.Class >= 0 && int(tk.Class) < g.s.d.NumClasses {
				servedN++
			}
			srv.Release(tk)
		}
	}
	return servedN, sent, time.Since(t0).Seconds(), nil
}

// serveRounds is how many times a run alternates an open-loop window with
// a closed-loop slice, after one round of warm-up. Each metric is read per
// round, so every metric samples the whole run: this sandbox's speed moves
// by a quarter for seconds at a time, and a phase confined to one stretch
// of the run reads whichever speed it met.
const serveRounds = 16

// serveRun is what the rounds leave behind.
type serveRun struct {
	measured, all        openLoopCounts // without and with the warm-up round
	winP50, winTail      []float64      // per window, seconds
	tailPct              float64
	latencyN             int
	queueWait, late      []float64 // pooled over the measured windows
	steps                []stepRecord
	openSeconds          float64
	sliceRates           []float64 // per slice, requests/s
	servedB, sentB       int64
	resolved, badTickets int64
	mallocsOpen          float64
}

// runRounds alternates windows and slices. closedShare is the part of each
// round given to the closed loop (0 skips phase B, as the traced run does).
func (g *loadgen) runRounds(seconds, closedShare float64, genLane, stepLane *lane) (*serveRun, error) {
	round := seconds / (serveRounds + 1)
	winS, sliceS := round*(1-closedShare), round*closedShare
	run := &serveRun{tailPct: tailGrid[len(tailGrid)-1]}
	var windows [][]float64
	for r := 0; r <= serveRounds; r++ {
		gl, sl := genLane, stepLane
		if r == 0 {
			gl, sl = nil, nil // the warm-up round records no spans
		}
		o := g.newOpenLoop(winS)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if err := o.run(gl, sl); err != nil {
			return nil, err
		}
		runtime.ReadMemStats(&after)
		counts, latency, queueWait, late := o.read()
		run.all.add(counts)
		run.resolved += o.resolved
		run.badTickets += o.badTickets
		var servedB, sentB int64
		var secondsB float64
		if sliceS > 0 {
			var err error
			if servedB, sentB, secondsB, err = g.closedLoop(sliceS); err != nil {
				return nil, err
			}
		}
		if r == 0 {
			continue
		}
		run.measured.add(counts)
		windows = append(windows, latency)
		run.tailPct = supportedTail(len(latency), run.tailPct)
		run.latencyN += len(latency)
		run.queueWait = append(run.queueWait, queueWait...)
		run.late = append(run.late, late...)
		run.steps = append(run.steps, o.steps...)
		run.openSeconds += winS
		run.mallocsOpen += float64(after.Mallocs - before.Mallocs)
		if sliceS > 0 {
			run.sliceRates = append(run.sliceRates, float64(servedB)/secondsB)
			run.servedB += servedB
			run.sentB += sentB
		}
	}
	for _, latency := range windows {
		s := summarizeAt(latency, run.tailPct)
		run.winP50 = append(run.winP50, s.P50)
		run.winTail = append(run.winTail, s.Tail)
	}
	return run, nil
}

// checkConservation holds over every round, warm-up included.
func (run *serveRun) checkConservation(res *result, srv *serve.Server) {
	all := run.all
	res.expect("sent = admitted + shed + invalid + closed",
		all.sent == all.admitted+all.shed+all.invalid+all.closed, "%+v", all)
	res.expect("admitted = served + expired", all.admitted == all.served+all.expired, "%+v", all)
	res.expect("every ticket resolved and released at drain", run.resolved == all.admitted,
		"resolved %d of %d admitted", run.resolved, all.admitted)
	res.expect("every ticket done, for its vertex, with a class in range", run.badTickets == 0, "%d bad tickets", run.badTickets)
	qs := srv.QueueStats()
	res.expect("queue counters agree", qs.Enqueued == qs.Dequeued && qs.Dropped == 0, "queue %+v", qs)
}

func (run *serveRun) batchMean() float64 {
	var reqs float64
	for _, s := range run.steps {
		reqs += float64(s.completed)
	}
	return reqs / float64(len(run.steps))
}

func runServe(cfg config, res *result) error {
	if cfg.traced {
		return runServeTraced(cfg, res)
	}
	s, err := timedSetup(cfg, res, func() (served, error) { return buildServed(cfg, nil) })
	if err != nil {
		return err
	}
	g := newLoadgen(cfg, s)
	run, err := g.runRounds(cfg.seconds, 0.3, nil, nil)
	if err != nil {
		return err
	}
	run.checkConservation(res, s.srv)
	s.srv.Close()
	_, drained, err := s.srv.Step()
	if err != nil {
		return err
	}
	_, out := s.srv.Submit(0)
	res.expect("closed server drains and refuses", drained && out == serve.Closed, "drained %v, submit after close %v", drained, out)

	m := run.measured
	res.Attempted = m.sent + run.sentB
	res.Failed = (m.sent - m.served) + (run.sentB - run.servedB)
	// Across rounds the middle half is averaged rather than the median
	// taken: the rounds sample a host that is at one of two speeds, and a
	// median of such a sample reads one speed or the other.
	res.putN("work_per_s", midmean(run.sliceRates), len(run.sliceRates), 50)
	res.putN("op_p50_ms", midmean(run.winP50)*1e3, run.latencyN, 50)
	res.putN("op_tail_ms", midmean(run.winTail)*1e3, run.latencyN, run.tailPct)
	res.put("goodput", float64(m.within)/float64(m.sent))
	late := summarize(run.late)
	res.Notes["work_unit"] = "request served, closed loop of full batches (phase B)"
	res.Notes["op"] = fmt.Sprintf("one request, open loop at %g/s (phase A), due to Step return", cfg.sz.serveRate)
	res.Notes["rounds"] = serveRounds
	res.Notes["sent"] = m.sent
	res.Notes["shed"] = m.shed
	res.Notes["expired"] = m.expired
	res.Notes["loadgen_late_ms_p50"] = late.P50 * 1e3
	res.Notes["loadgen_late_ms_tail"] = late.Tail * 1e3
	res.Notes["batch_mean"] = run.batchMean()
	res.Notes["closed_loop_slice_rates"] = run.sliceRates
	return nil
}

// runServeTraced repeats the open-loop windows with a span around every
// Submit and every Step, then hand-sequences what one Step does inside —
// sample, compact, gather, classify, hotness delta, and every 64th batch
// the rerank — on buffers of its own.
func runServeTraced(cfg config, res *result) error {
	rec := newRecorder()
	setupLane := rec.lane("setup")
	genLane, stepLane := rec.lane("generator"), rec.lane("dispatcher")
	chainLane := rec.lane("chain")
	s, err := buildServed(cfg, setupLane)
	if err != nil {
		return err
	}
	res.put("gen.generate_s", median(rec.selfOf("gen.generate")))

	g := newLoadgen(cfg, s)
	run, err := g.runRounds(0.55*cfg.seconds, 0, genLane, stepLane)
	if err != nil {
		return err
	}
	run.checkConservation(res, s.srv)
	m := run.measured
	res.Attempted = m.sent
	res.Failed = m.sent - m.served

	var stepS, rerankS []float64
	for _, sr := range run.steps {
		stepS = append(stepS, sr.dur)
		if sr.rerank {
			rerankS = append(rerankS, sr.dur)
		}
	}
	steps := summarize(stepS)
	res.putN("serve.step_ms_p50", steps.P50*1e3, steps.N, 50)
	res.putN("serve.step_ms_p99", steps.Tail*1e3, steps.N, steps.TailPct)
	res.putN("serve.step_ms_max", steps.Max*1e3, steps.N, 100)
	res.putTiming("serve.rerank_step_ms", "", rerankS, 1e3)
	res.put("serve.batch_mean", run.batchMean())
	res.put("serve.busy_share", sum(stepS)/run.openSeconds)
	res.putTiming("serve.queue_wait_ms_p50", "serve.queue_wait_ms_p99", run.queueWait, 1e3)
	res.put("serve.shed_share", float64(m.shed)/float64(m.sent))
	res.put("serve.expired_share", float64(m.expired)/float64(m.sent))
	res.put("serve.allocs_per_step", run.mallocsOpen/float64(len(run.steps)))
	res.putTiming("serve.submit_ns", "", rec.selfOf("serve.submit"), 1e9)
	res.putTiming("loadgen.late_ms_p50", "loadgen.late_ms_p99", run.late, 1e3)
	res.put("loadgen.sent", float64(m.sent))
	qs := s.srv.QueueStats()
	res.put("queue.max_depth", float64(qs.MaxDepth))
	res.put("queue.dropped", float64(qs.Dropped))

	c, err := newServeChain(cfg, s.d)
	if err != nil {
		return err
	}
	for i := 0; i < 2*rerankEvery; i++ { // warm-up: two full rerank periods
		if err := c.cycleOnce(); err != nil {
			return err
		}
	}
	c.ln = chainLane
	c.resetCounters()
	for t0 := time.Now(); time.Since(t0).Seconds() < 0.3*cfg.seconds || c.batches < rerankEvery; {
		if err := c.cycleOnce(); err != nil {
			return err
		}
	}
	shares := rec.shares("serve.cycle")
	expectSharesSumToOne(res, shares)
	c.put(res, rec, shares, s.d.FeatureDim, serveSpec().HiddenDim, true)
	res.putTiming("nn.forward_ms", "", rec.selfOf("nn.forward"), 1e3)
	res.put("nn.busy_share", shares["nn.compact"]+shares["nn.forward"])
	res.putTiming("feature.enable_cache_ms", "", rec.selfOf("feature.enable_cache"), 1e3)
	res.putTiming("cache.ranktop_ms", "", rec.selfOf("cache.ranktop"), 1e3)
	res.putTiming("cache.load_ms", "", rec.selfOf("cache.load"), 1e3)
	res.put("cache.applydelta_ns_per_visit", 1e9*sum(rec.selfOf("cache.applydelta"))/float64(c.inputs))
	res.Notes["chain_cycles"] = c.batches
	return rec.writeTrace(cfg.tracePath)
}

// serveChain is one Step's inside, hand-sequenced from the same public
// calls serve.Server makes.
type serveChain struct {
	chainStats
	d     *gen.Dataset
	ln    *lane
	p     *picks
	r     *rng.Rand
	model *nn.Model
	hot   cache.Hotness
	slots int

	seeds   []int32
	seen    map[int32]bool
	cmp     nn.Compact
	feats   tensor.Matrix
	classes []int32
	visits  []cache.DeltaVisit

	cycle int
}

// newServeChain builds the chain with no lane: set one after warming up.
func newServeChain(cfg config, d *gen.Dataset) (*serveChain, error) {
	spec := serveSpec()
	alg := spec.NewSampler()
	sampling.Prepare(alg, d.Graph)
	store, err := feature.NewStore(d.Features, d.FeatureDim)
	if err != nil {
		return nil, err
	}
	c := &serveChain{
		chainStats: chainStats{alg: sampling.ClonePooled(alg), store: store, ws: []*nn.Workspace{nn.NewWorkspace()}},
		d:          d, p: newPicks(cfg, d.NumVertices()),
		r:     rng.New(cfg.seed ^ 0x5E12F),
		model: nn.NewModel(spec.Kind, spec.NumLayers(), d.FeatureDim, spec.HiddenDim, d.NumClasses, cfg.seed),
		hot:   cache.DegreeHotness(d.Graph),
		slots: d.NumVertices() / 10,
		seen:  map[int32]bool{},
	}
	return c, c.rerank()
}

func (c *serveChain) rerank() error {
	return loadCache(c.ln, c.cycle, c.store, c.hot, c.slots, c.d)
}

// cycleOnce serves one full batch of distinct seeds.
func (c *serveChain) cycleOnce() error {
	c.seeds = c.seeds[:0]
	clear(c.seen)
	for len(c.seeds) < serveBatch {
		if v := c.p.next(); !c.seen[v] {
			c.seen[v] = true
			c.seeds = append(c.seeds, v)
		}
	}
	c.cycle++
	ln := c.ln
	root := ln.begin("serve.cycle", c.cycle)
	var s *sampling.Sample
	var err error
	ln.time("sampling.sample", c.cycle, func() { s = c.alg.Sample(c.d.Graph, c.seeds, c.r) })
	ln.time("nn.compact", c.cycle, func() { err = nn.NewCompactInto(&c.cmp, s) })
	if err != nil {
		return err
	}
	ln.time("feature.gather", c.cycle, func() { c.store.GatherInto(&c.feats, s) })
	ln.time("nn.forward", c.cycle, func() { c.classes, err = c.model.ClassifyWS(c.ws[0], &c.cmp, &c.feats, c.classes) })
	if err != nil {
		return err
	}
	ln.time("cache.applydelta", c.cycle, func() {
		c.visits = c.visits[:0]
		for _, v := range s.Input {
			c.visits = append(c.visits, cache.DeltaVisit{Vertex: v, Count: 1})
		}
		c.hot.ApplyDelta(c.visits)
	})
	c.observe(s)
	if c.batches%rerankEvery == 0 {
		c.hot.Decay(0.9)
		if err := c.rerank(); err != nil {
			return err
		}
	}
	ln.end(root)
	return nil
}
