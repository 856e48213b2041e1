package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sync"
	"time"

	"adhocconsensus"
	"adhocconsensus/internal/cli"
	"adhocconsensus/internal/cm"
	"adhocconsensus/internal/engine"
	"adhocconsensus/internal/events"
	"adhocconsensus/internal/jobs"
	"adhocconsensus/internal/loss"
	"adhocconsensus/internal/model"
	"adhocconsensus/internal/replay"
	"adhocconsensus/internal/sim"
	"adhocconsensus/internal/sink"
	"adhocconsensus/internal/telemetry"
)

// tracePlan sizes a workload's traced run at scale 1 and the default budget.
type tracePlan struct {
	sweepTrials int // trials through the traced pipeline, and again untraced
	modelTrials int // trials re-run at full trace and validated
	jobs        int // jobs through a supervisor with a traced Run
	jobTrials   int // trials per such job
}

// sampleEvery is the trial sampling stride of per-round component spans.
const sampleEvery = 16

// The engine components a sampled trial times; component c's spans are
// named spanCM + c.
const (
	compCM = iota
	compObserve
	compMessage
	compPlan
	compTransition
	nComp
)

// compStat is the time inside one component's calls and how many there were.
type compStat struct{ ns, calls int64 }

// probe collects one engine run's counts and, in a sampled trial, its
// component timings. The wrappers of one run share it.
type probe struct {
	tr      *tracer
	trial   int
	sampled bool  // time the components
	spans   bool  // and leave one span per component and round
	parent  int32 // the run's engine.run span

	senders, pairs int64
	comp           [nComp]compStat
	open           [nComp]int32 // this round's span per component
	openRound      [nComp]int

	recvLen, recvDistinct, delivers int64
}

func newProbe(tr *tracer, trial int, sampled, spans bool) *probe {
	p := &probe{tr: tr, trial: trial, sampled: sampled, spans: spans}
	for c := range p.openRound {
		p.openRound[c] = -1
	}
	return p
}

func (p *probe) record(c, r int, start, end int64) {
	p.comp[c].ns += end - start
	p.comp[c].calls++
	if !p.spans {
		return
	}
	if p.openRound[c] == r {
		s := p.tr.at(p.open[c])
		s.End = end
		s.Busy += end - start
		s.Calls++
		return
	}
	p.open[c] = p.tr.push(span{Name: spanCM + spanName(c), Parent: p.parent, Trial: int32(p.trial),
		Start: start, End: end, Busy: end - start, Calls: 1})
	p.openRound[c] = r
}

// selfTime is an engine run's time outside the timed component calls, net
// of what timing them cost.
func (p *probe) selfTime(run int64) int64 {
	self := run
	for _, cs := range p.comp {
		self -= cs.ns + cs.calls*(p.tr.callCost-p.tr.clock)
	}
	return self
}

// compTime is the time inside component c's calls, net of the clock reads.
func (p *probe) compTime(c int) int64 { return p.comp[c].ns - p.comp[c].calls*p.tr.clock }

// wrapConfig installs the probe around a materialized configuration. Every
// run counts senders and pairs through the adversary; a sampled run also
// times the contention manager and every automaton. The detector is a
// concrete type and is not wrapped: its advice is engine self time.
func wrapConfig(cfg *engine.Config, p *probe) {
	cfg.Loss = &tracedLoss{inner: cfg.Loss, p: p}
	if !p.sampled {
		return
	}
	cfg.CM = wrapCM(cfg.CM, p)
	procs := make(map[model.ProcessID]model.Automaton, len(cfg.Procs))
	for id, a := range cfg.Procs {
		procs[id] = wrapProc(a, p)
	}
	cfg.Procs = procs
}

// tracedProc times an automaton's message and transition functions and
// counts the receive multisets delivered to it.
type tracedProc struct {
	inner model.Automaton
	p     *probe
}

func (a *tracedProc) Message(r int, c model.CMAdvice) *model.Message {
	s := a.p.tr.now()
	m := a.inner.Message(r, c)
	a.p.record(compMessage, r, s, a.p.tr.now())
	return m
}

func (a *tracedProc) Deliver(r int, recv *model.RecvSet, cd model.CDAdvice, c model.CMAdvice) {
	a.p.recvLen += int64(recv.Len())
	a.p.recvDistinct += int64(recv.Distinct())
	a.p.delivers++
	s := a.p.tr.now()
	a.inner.Deliver(r, recv, cd, c)
	a.p.record(compTransition, r, s, a.p.tr.now())
}

// tracedDecider forwards model.Decider: the engine reads decisions only
// from automata that implement it.
type tracedDecider struct {
	tracedProc
	d model.Decider
}

func (a *tracedDecider) Decided() (model.Value, bool) { return a.d.Decided() }
func (a *tracedDecider) Halted() bool                 { return a.d.Halted() }

func wrapProc(a model.Automaton, p *probe) model.Automaton {
	if d, ok := a.(model.Decider); ok {
		return &tracedDecider{tracedProc{a, p}, d}
	}
	return &tracedProc{a, p}
}

// tracedCM times a contention manager. The engine takes the dense path and
// feeds channel observations only to managers implementing cm.DenseAdviser
// and cm.Observer, so wrapCM returns a wrapper implementing exactly the
// optional interfaces the manager does.
type tracedCM struct {
	inner cm.Service
	p     *probe
}

func (c *tracedCM) Advise(r int, procs []model.ProcessID, alive func(model.ProcessID) bool) map[model.ProcessID]model.CMAdvice {
	s := c.p.tr.now()
	out := c.inner.Advise(r, procs, alive)
	c.p.record(compCM, r, s, c.p.tr.now())
	return out
}

type tracedDenseCM struct {
	*tracedCM
	d cm.DenseAdviser
}

func (c tracedDenseCM) AdviseInto(r int, procs []model.ProcessID, alive func(model.ProcessID) bool, out []model.CMAdvice) {
	s := c.p.tr.now()
	c.d.AdviseInto(r, procs, alive, out)
	c.p.record(compCM, r, s, c.p.tr.now())
}

type observer struct {
	o cm.Observer
	p *probe
}

func (c observer) Observe(r, broadcasters int) {
	s := c.p.tr.now()
	c.o.Observe(r, broadcasters)
	c.p.record(compObserve, r, s, c.p.tr.now())
}

type tracedObserverCM struct {
	*tracedCM
	observer
}

type tracedDenseObserverCM struct {
	tracedDenseCM
	observer
}

func wrapCM(s cm.Service, p *probe) cm.Service {
	base := &tracedCM{s, p}
	d, dense := s.(cm.DenseAdviser)
	o, obs := s.(cm.Observer)
	switch {
	case dense && obs:
		return tracedDenseObserverCM{tracedDenseCM{base, d}, observer{o, p}}
	case dense:
		return tracedDenseCM{base, d}
	case obs:
		return tracedObserverCM{base, observer{o, p}}
	}
	return base
}

// tracedLoss counts every round's senders and (receiver, sender) pairs and,
// in a sampled run, times the plan. It hides loss.ShardedPlanner and
// loss.ConcurrentPlanner, which the engine consults only on its parallel
// delivery path; the traced run is sequential.
type tracedLoss struct {
	inner loss.Adversary
	p     *probe
}

func (l *tracedLoss) Plan(r int, senders, procs []model.ProcessID) loss.DeliveryFunc {
	p := l.p
	p.senders += int64(len(senders))
	p.pairs += int64(len(senders) * len(procs))
	if !p.sampled {
		return l.inner.Plan(r, senders, procs)
	}
	s := p.tr.now()
	fn := l.inner.Plan(r, senders, procs)
	p.record(compPlan, r, s, p.tr.now())
	return fn
}

// scenarioOf translates a public configuration into the scenario a sweep
// of it executes (decisions only), as Config.StreamTrials does.
func scenarioOf(c adhocconsensus.Config) (sim.Scenario, error) {
	algs := map[adhocconsensus.Algorithm]sim.Algorithm{
		adhocconsensus.AlgorithmPropose:     sim.AlgPropose,
		adhocconsensus.AlgorithmBitByBit:    sim.AlgBitByBit,
		adhocconsensus.AlgorithmTreeWalk:    sim.AlgTreeWalk,
		adhocconsensus.AlgorithmLeaderRelay: sim.AlgLeaderRelay,
	}
	cms := map[adhocconsensus.ContentionMode]sim.CMMode{
		adhocconsensus.ContentionAuto:    sim.CMAuto,
		adhocconsensus.ContentionWakeUp:  sim.CMWakeUp,
		adhocconsensus.ContentionLeader:  sim.CMLeader,
		adhocconsensus.ContentionBackoff: sim.CMBackoff,
		adhocconsensus.ContentionNone:    sim.CMNone,
	}
	losses := map[adhocconsensus.LossMode]sim.LossMode{
		adhocconsensus.LossNone:          sim.LossNone,
		adhocconsensus.LossProbabilistic: sim.LossProbabilistic,
		adhocconsensus.LossCapture:       sim.LossCapture,
		adhocconsensus.LossDrop:          sim.LossDrop,
	}
	alg, ok1 := algs[c.Algorithm]
	cmMode, ok2 := cms[c.Contention]
	lossMode, ok3 := losses[c.Loss]
	if !ok1 || !ok2 || !ok3 {
		return sim.Scenario{}, fmt.Errorf("configuration outside the benchmark's translation: %+v", c)
	}
	crashes := make(model.Schedule, len(c.Crashes))
	for _, cr := range c.Crashes {
		when := model.CrashBeforeSend
		if cr.AfterSend {
			when = model.CrashAfterSend
		}
		crashes[cr.Process] = model.Crash{Round: cr.Round, Time: when}
	}
	return sim.Scenario{
		Algorithm:         alg,
		Values:            c.Values,
		Domain:            c.Domain,
		IDs:               c.IDs,
		IDSpace:           c.IDSpace,
		Detector:          c.DetectorClass,
		Race:              c.DetectorRace,
		FalsePositiveRate: c.FalsePositiveRate,
		CM:                cmMode,
		Stable:            c.Stable,
		Loss:              lossMode,
		LossP:             c.LossP,
		ECFRound:          c.ECFRound,
		Crashes:           crashes,
		MaxRounds:         c.MaxRounds,
		Trace:             engine.TraceDecisionsOnly,
		DeliveryWorkers:   c.DeliveryWorkers,
		UseGoroutines:     c.UseGoroutines,
		Seed:              c.Seed,
		SeedSchedule:      c.SeedSchedule,
	}, nil
}

// digest is sim.RunTrialFull's digest of an engine result.
func digest(index int, s sim.Scenario, res *engine.Result, err error) sim.Result {
	if err != nil {
		return sim.Result{Index: index, Name: s.Name, Seed: s.Seed, Err: err}
	}
	return sim.Result{
		Index:             index,
		Name:              s.Name,
		Seed:              s.Seed,
		Rounds:            res.Rounds,
		AllDecided:        res.AllDecided,
		Decisions:         len(res.Decisions),
		DecidedValues:     res.Execution.DecidedValues(),
		LastDecisionRound: res.Execution.LastDecisionRound(),
		AgreementOK:       engine.CheckAgreement(res) == nil,
		ValidityOK:        engine.CheckStrongValidity(res) == nil,
		TerminationOK:     engine.CheckTermination(res, s.Crashes) == nil,
	}
}

// recordWriter writes a trials segment's records exactly as a trials spec
// does: the public per-trial result, then the JSONL record with the
// configuration's recorded parameters and fingerprint.
type recordWriter struct {
	j      *sink.JSONL
	fp     string
	params sink.Params
	vals   []uint64
}

func newRecordWriter(w io.Writer, cfg adhocconsensus.Config, base sim.Scenario) *recordWriter {
	j := sink.NewJSONL(w)
	j.Exp = "trials"
	bp := sink.ParamsOf(base)
	bp.SweepSeed = cfg.Seed
	return &recordWriter{j: j, fp: bp.Fingerprint(), params: cli.RecordParams(cfg)}
}

// publicResult is the public per-trial result of a digest.
func publicResult(r sim.Result, fp string) adhocconsensus.TrialResult {
	if r.Err != nil {
		return adhocconsensus.TrialResult{Trial: r.Index, Seed: r.Seed, Fingerprint: fp, Err: r.Err.Error()}
	}
	return adhocconsensus.TrialResult{
		Trial:             r.Index,
		Seed:              r.Seed,
		Fingerprint:       fp,
		Rounds:            r.Rounds,
		Decided:           r.AllDecided,
		Decisions:         r.Decisions,
		DecidedValues:     r.DecidedValues,
		LastDecisionRound: r.LastDecisionRound,
		AgreementOK:       r.AgreementOK,
		ValidityOK:        r.ValidityOK,
		TerminationOK:     r.TerminationOK,
	}
}

func (w *recordWriter) write(res sim.Result) error {
	r := publicResult(res, w.fp)
	rec := sink.Record{
		Fingerprint:       r.Fingerprint,
		Index:             r.Trial,
		Seed:              r.Seed,
		Rounds:            r.Rounds,
		AllDecided:        r.Decided,
		Decisions:         r.Decisions,
		LastDecisionRound: r.LastDecisionRound,
		AgreementOK:       r.AgreementOK,
		ValidityOK:        r.ValidityOK,
		TerminationOK:     r.TerminationOK,
		Err:               r.Err,
		Params:            w.params,
	}
	w.vals = w.vals[:0]
	for _, v := range r.DecidedValues {
		w.vals = append(w.vals, uint64(v))
	}
	rec.DecidedValues = w.vals
	return w.j.WriteRecord(rec)
}

// timedWriter times the writes under the JSONL buffer.
type timedWriter struct {
	w            io.Writer
	tr           *tracer
	ns           int64
	calls, bytes int64
}

func (t *timedWriter) Write(b []byte) (int, error) {
	s := t.tr.now()
	n, err := t.w.Write(b)
	t.ns += t.tr.now() - s - t.tr.clock
	t.calls++
	t.bytes += int64(n)
	return n, err
}

// countSink counts the rounds of a runner's results.
type countSink struct{ rounds int64 }

func (c *countSink) Consume(r sim.Result) error {
	c.rounds += int64(r.Rounds)
	return nil
}

// tracedRun is one traced run's state and its accumulated layer numbers.
type tracedRun struct {
	e    *env
	sh   shape
	tr   *tracer
	m    map[string]float64
	args []string
	cfg  adhocconsensus.Config
	base sim.Scenario

	attempted, failed int
	err               error
}

func (x *tracedRun) mismatch(format string, a ...any) {
	x.failed++
	if x.err == nil {
		x.err = fmt.Errorf(format, a...)
	}
}

// traced returns a plan count scaled by the run's scale and budget.
func (e *env) traced(n int) int {
	return max(1, int(math.Round(float64(n)*e.scale*e.seconds/defaultSeconds)))
}

func newTracedRun(e *env, w workload) (*tracedRun, error) {
	x := &tracedRun{e: e, sh: w.shape, tr: newTracer(), m: map[string]float64{}, args: w.shape.args(e.cfgSeed(0))}
	var err error
	if x.cfg, err = parseConfig(x.args); err != nil {
		return nil, err
	}
	x.base, err = scenarioOf(x.cfg)
	return x, err
}

// trialsOf is the first n trials of the configuration's sweep, seeded as
// Config.StreamTrials seeds them.
func (x *tracedRun) trialsOf(n int) []sim.Trial {
	trials := make([]sim.Trial, n)
	for t := range trials {
		s := x.base
		s.Seed = sim.TrialSeed(x.cfg.Seed, 0, t)
		trials[t] = sim.Trial{Index: t, Scenario: s}
	}
	return trials
}

// runTraced is the traced run of a workload. It drives every layer at w=1
// on the workload's configuration, timing calls into each layer's public
// functions from outside, and checks that every output equals the output of
// the same work done untraced.
func runTraced(e *env, w workload) (Result, error) {
	telemetry.Enable() // jobs.Execute enables it; both sides must match
	x, err := newTracedRun(e, w)
	if err != nil {
		return Result{}, err
	}
	trials := x.trialsOf(e.traced(w.shape.trace.sweepTrials))
	x.allocs(trials[:max(1, min(64, len(trials)/64))])
	results, err := x.sweep(trials)
	if err != nil {
		return Result{}, err
	}
	x.runner(trials, results)
	x.model(trials[:min(len(trials), e.traced(w.shape.trace.modelTrials))], results)
	if err := x.jobs(e.traced(w.shape.trace.jobs), max(2, e.count(w.shape.trace.jobTrials))); err != nil {
		return Result{}, err
	}
	if err := x.tr.write(e.traceFile); err != nil {
		return Result{}, err
	}
	metrics, err := metricSet(perLayer, x.m)
	if err != nil {
		return Result{}, err
	}
	return Result{Correct: x.failed == 0, Attempted: x.attempted, Failed: x.failed, Metrics: metrics}, x.err
}

// allocs counts the allocations of scenario materialization and of an
// untraced engine run, outside any timed phase.
func (x *tracedRun) allocs(trials []sim.Trial) {
	var mat, run uint64
	for _, t := range trials {
		m0 := readMem()
		cfg, err := t.Scenario.Materialize()
		m1 := readMem()
		if err != nil {
			x.mismatch("materialize: %v", err)
			return
		}
		_, err = engine.Run(*cfg)
		m2 := readMem()
		if err != nil {
			x.mismatch("engine run: %v", err)
		}
		mat += m1.mallocs - m0.mallocs
		run += m2.mallocs - m1.mallocs
	}
	x.m["sim.materialize_allocs_per_trial"] = float64(mat) / float64(len(trials))
	x.m["engine.allocs_per_run"] = float64(run) / float64(len(trials))
}

// sweep runs the traced pipeline — materialize, wrap, engine.Run, digest,
// sink — into a shard file. Trial by trial, alternating which goes first,
// it also runs the same pipeline untraced into a second file: the ratio of
// the two times is the tracing overhead, measured under the same machine
// conditions. Then the trials run through jobs.Execute at w=1, and all three
// files must be equal.
func (x *tracedRun) sweep(trials []sim.Trial) ([]sim.Result, error) {
	tr, c := x.tr, x.tr.clock
	traced := filepath.Join(x.e.dir, "traced.jsonl")
	bare := filepath.Join(x.e.dir, "untraced.jsonl")
	f, err := os.Create(traced)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	bf, err := os.Create(bare)
	if err != nil {
		return nil, err
	}
	defer bf.Close()
	tw := &timedWriter{w: f, tr: tr}
	rw := newRecordWriter(tw, x.cfg, x.base)
	bw := newRecordWriter(bf, x.cfg, x.base)
	results := make([]sim.Result, len(trials))
	tr.reserve(8 * len(trials))
	var (
		materialize, dig, sinkNs int64
		runNs, runRounds         int64 // unsampled runs
		selfNs, sRounds, sPairs  int64 // sampled runs
		rounds, senders, pairs   int64
		comp                     [nComp]int64
		recvLen, recvDist, deliv int64
		tracedNs, bareNs         int64
	)
	untraced := func(t sim.Trial) error {
		s := tr.now()
		cfg, err := t.Scenario.Materialize()
		if err != nil {
			return err
		}
		res, err := engine.Run(*cfg)
		err = bw.write(digest(t.Index, t.Scenario, res, err))
		bareNs += tr.now() - s
		return err
	}
	for i, t := range trials {
		if i%2 == 1 {
			if err := untraced(t); err != nil {
				return nil, err
			}
		}
		ts := tr.begin(spanTrial, -1, t.Index)
		ms := tr.begin(spanMaterialize, ts, t.Index)
		cfg, err := t.Scenario.Materialize()
		materialize += tr.end(ms)
		if err != nil {
			return nil, err
		}
		sampled := i%sampleEvery == 0
		p := newProbe(tr, t.Index, sampled, sampled)
		wrapConfig(cfg, p)
		p.parent = tr.begin(spanEngineRun, ts, t.Index)
		res, err := engine.Run(*cfg)
		d := tr.end(p.parent)
		ds := tr.begin(spanDigest, ts, t.Index)
		results[i] = digest(t.Index, t.Scenario, res, err)
		dig += tr.end(ds)
		ss := tr.begin(spanSinkWrite, ts, t.Index)
		err = rw.write(results[i])
		sinkNs += tr.end(ss)
		tracedNs += tr.end(ts)
		if err != nil {
			return nil, err
		}
		if i%2 == 0 {
			if err := untraced(t); err != nil {
				return nil, err
			}
		}
		r := int64(results[i].Rounds)
		rounds += r
		senders += p.senders
		pairs += p.pairs
		if !p.sampled {
			runNs += d
			runRounds += r
			continue
		}
		for k := range comp {
			comp[k] += p.compTime(k)
		}
		selfNs += p.selfTime(d)
		sRounds += r
		sPairs += p.pairs
		recvLen += p.recvLen
		recvDist += p.recvDistinct
		deliv += p.delivers
	}
	recordWriteNs, recordWrites := tw.ns, tw.calls
	fs := tr.begin(spanSinkFlush, -1, -1)
	err = rw.j.Flush()
	tr.end(fs)
	if err != nil {
		return nil, err
	}
	if err := bw.j.Flush(); err != nil {
		return nil, err
	}
	n := float64(len(trials))
	x.attempted += len(trials)
	x.m["sim.materialize_ns_per_trial"] = float64(materialize) / n
	x.m["sim.digest_ns_per_trial"] = float64(dig) / n
	x.m["sink.encode_ns_per_record"] = float64(sinkNs-recordWriteNs-recordWrites*c) / n
	x.m["sink.write_ns_per_mb"] = float64(tw.ns) / (float64(tw.bytes) / 1e6)
	if runRounds == 0 { // every trial was sampled: fall back to their time
		runNs, runRounds = selfNs, sRounds
		for _, v := range comp {
			runNs += v
		}
	}
	x.m["engine.ns_per_round"] = float64(runNs) / float64(runRounds)
	x.m["engine.self_ns_per_round"] = float64(selfNs) / float64(sRounds)
	x.m["engine.self_ns_per_pair"] = float64(selfNs) / float64(max(sPairs, 1))
	x.m["engine.pairs_per_round"] = float64(pairs) / float64(rounds)
	x.m["engine.senders_per_round"] = float64(senders) / float64(rounds)
	x.m["cm.advise_ns_per_round"] = float64(comp[compCM]+comp[compObserve]) / float64(sRounds)
	x.m["core.message_ns_per_round"] = float64(comp[compMessage]) / float64(sRounds)
	x.m["core.transition_ns_per_round"] = float64(comp[compTransition]) / float64(sRounds)
	x.m["loss.plan_ns_per_round"] = float64(comp[compPlan]) / float64(sRounds)
	x.m["multiset.recv_len_mean"] = float64(recvLen) / float64(max(deliv, 1))
	x.m["multiset.recv_distinct_mean"] = float64(recvDist) / float64(max(deliv, 1))

	x.m["trace.overhead_frac"] = float64(tracedNs)/float64(bareNs) - 1

	// The same trials through the production entry point.
	plain := filepath.Join(x.e.dir, "plain.jsonl")
	bs := tr.begin(spanExecute, -1, -1)
	_, err = jobs.Execute(context.Background(), jobs.Spec{Trials: len(trials), Config: x.args, Workers: 1, Out: plain}, io.Discard)
	tr.end(bs)
	if err != nil {
		return nil, err
	}
	want := fileSum(plain)
	for _, p := range []string{traced, bare} {
		if got := fileSum(p); got != want {
			x.mismatch("%s sha256 %s, jobs.Execute's %s", filepath.Base(p), got, want)
		}
	}
	for _, p := range []string{traced, bare, plain, plain + ".report.json"} {
		os.Remove(p)
	}
	return results, nil
}

func fileSum(path string) string {
	b, err := os.ReadFile(path)
	if err != nil {
		return "unreadable: " + err.Error()
	}
	return fmt.Sprintf("%x", sha256.Sum256(b))
}

// runnerChunks is how many slices the runner passes alternate over, so that
// all three see the same machine conditions.
const runnerChunks = 8

// runner times the sweep runner: the trials run directly, then through
// Runner.SweepTrialsTo at w=1 and at w=nproc into a counting sink, the three
// passes taking turns slice by slice. Every pass must execute the rounds the
// traced pipeline executed.
func (x *tracedRun) runner(trials []sim.Trial, results []sim.Result) {
	tr := x.tr
	var want int64
	for _, r := range results {
		want += int64(r.Rounds)
	}
	var ns, rounds [3]int64 // direct, w=1, w=nproc
	pass := func(k int, part []sim.Trial) {
		switch k {
		case 0:
			s := tr.begin(spanRunTrial, -1, -1)
			for _, t := range part {
				rounds[0] += int64(sim.RunTrial(t.Index, t.Scenario).Rounds)
			}
			ns[0] += tr.end(s)
		default:
			workers, name := 1, spanSweepOne
			if k == 2 {
				workers, name = x.e.nproc, spanSweepAll
			}
			var cs countSink
			s := tr.begin(name, -1, -1)
			if err := (sim.Runner{Workers: workers}).SweepTrialsTo(part, &cs); err != nil {
				x.mismatch("runner w=%d: %v", workers, err)
			}
			ns[k] += tr.end(s)
			rounds[k] += cs.rounds
		}
	}
	size := (len(trials) + runnerChunks - 1) / runnerChunks
	for c := 0; c*size < len(trials); c++ {
		part := trials[c*size : min((c+1)*size, len(trials))]
		for k := range 3 {
			pass((c+k)%3, part)
		}
	}
	for _, got := range rounds {
		if got != want {
			x.mismatch("runner executed %d rounds, traced pipeline %d", got, want)
		}
	}
	x.m["sim.runner_ns_per_trial"] = float64(ns[1]-ns[0]) / float64(len(trials))
	x.m["sim.parallel_efficiency"] = float64(ns[1]) / float64(ns[2]) / float64(x.e.nproc)
}

// model re-runs trials at full trace and decisions-only, both traced, and
// validates the full executions: the difference in engine self time is the
// cost of recording the trace. Each verdict must equal Config.Replay's.
func (x *tracedRun) model(trials []sim.Trial, recorded []sim.Result) {
	tr := x.tr
	fp := newRecordWriter(io.Discard, x.cfg, x.base).fp
	var selfFull, selfDec, rounds, validate int64
	run := func(s sim.Scenario, name spanName, parent int32, index int, spans bool) (*engine.Result, sim.Result, int64) {
		cfg, err := s.Materialize()
		if err != nil {
			return nil, sim.Result{Index: index, Err: err}, 0
		}
		p := newProbe(tr, index, true, spans)
		wrapConfig(cfg, p)
		p.parent = tr.begin(name, parent, index)
		res, err := engine.Run(*cfg)
		self := p.selfTime(tr.end(p.parent))
		return res, digest(index, s, res, err), self
	}
	for i, t := range trials {
		ts := tr.begin(spanReplay, -1, t.Index)
		full := t.Scenario
		full.Trace = engine.TraceFull
		res, fresh, self := run(full, spanRunFull, ts, t.Index, i%sampleEvery == 0)
		if res == nil {
			x.mismatch("trial %d: full-trace run failed: %v", t.Index, fresh.Err)
			tr.end(ts)
			continue
		}
		diff := replay.DigestDiff(recorded[i], fresh)
		vs := tr.begin(spanValidate, ts, t.Index)
		verr := res.Execution.Validate()
		validate += tr.end(vs)
		res.Execution.Release()
		selfFull += self
		_, _, self = run(t.Scenario, spanRunDecisions, ts, t.Index, i%sampleEvery == 0)
		selfDec += self
		rounds += int64(fresh.Rounds)
		tr.end(ts)

		rep, err := x.cfg.Replay(publicResult(recorded[i], fp))
		x.attempted++
		switch {
		case err != nil:
			x.mismatch("trial %d: Config.Replay: %v", t.Index, err)
		case rep.DigestOK != (diff == "") || rep.TraceValid != (verr == nil) || rep.Report.Rounds != fresh.Rounds:
			x.mismatch("trial %d: traced verdict digest=%t valid=%t rounds=%d, Config.Replay %t %t %d",
				t.Index, diff == "", verr == nil, fresh.Rounds, rep.DigestOK, rep.TraceValid, rep.Report.Rounds)
		case !rep.OK():
			x.mismatch("trial %d: replay failed: %s %s", t.Index, rep.Mismatch, rep.TraceError)
		}
		if err == nil {
			rep.Report.Execution.Release()
		}
	}
	x.m["model.trace_record_ns_per_round"] = float64(selfFull-selfDec) / float64(max(rounds, 1))
	x.m["model.validate_ns_per_trial"] = float64(validate) / float64(max(len(trials), 1))
}

// jobTimes are the instants a traced job attempt passed through Execute's
// four steps.
type jobTimes struct {
	entered, built, salvaged, streamed, reported int64
	records                                      int // salvaged records
}

// jobs runs daemon-style jobs — torn half shards to salvage and resume —
// through a supervisor whose Run is Execute's body with its four calls
// timed. The first job's output must equal an untraced uninterrupted shard.
func (x *tracedRun) jobs(count, trials int) error {
	tr := x.tr
	dir := filepath.Join(x.e.dir, "sweepd-traced")
	if err := resetDir(dir); err != nil {
		return err
	}
	var mu sync.Mutex
	times := map[string]jobTimes{}
	run := func(ctx context.Context, spec jobs.Spec, info io.Writer) (*telemetry.Report, error) {
		jt := jobTimes{entered: tr.now()}
		spec.Normalize()
		segs, err := jobs.BuildSegments(spec)
		jt.built = tr.now()
		if err != nil {
			return nil, cli.WithExit(cli.ExitUsage, err)
		}
		telemetry.Enable()
		skips := make([]int, len(segs))
		f, err := jobs.Salvage(spec.Out, segs, skips, info)
		jt.salvaged = tr.now()
		if err != nil {
			return nil, err
		}
		start := time.Now()
		out := jobs.Stream(ctx, segs, skips, f, nil)
		cerr := f.Close()
		jt.streamed = tr.now()
		if out.AbortErr == nil && cerr != nil {
			out.AbortErr = cli.WithExit(cli.ExitSink, cerr)
		}
		rep := jobs.BuildReport("sweepd job", jobs.StatusOf(out.AbortErr, out.TrialErr), time.Since(start), out.Segments, out.Causes)
		werr := rep.WriteFile(spec.Out + ".report.json")
		jt.reported = tr.now()
		for _, s := range skips {
			jt.records += s
		}
		mu.Lock()
		times[spec.Out] = jt
		mu.Unlock()
		if werr != nil {
			if out.Err() == nil {
				return rep, cli.WithExit(cli.ExitSink, fmt.Errorf("run report: %w", werr))
			}
			fmt.Fprintf(info, "run report not written: %v\n", werr)
		}
		return rep, out.Err()
	}
	jal := events.New(events.Options{Capacity: journalCapacity})
	events.Activate(jal)
	defer events.Activate(nil)
	sup, err := jobs.New(jobs.Options{Dir: dir, Run: run})
	if err != nil {
		return err
	}
	sup.Start()
	defer sup.Drain(context.Background()) // on an early return; Drain is idempotent
	type done struct {
		path          string
		seed          int64
		in            tornInput
		st            jobs.Status
		submit, final int64
	}
	var finished []done
	for k := range count {
		seed := x.e.cfgSeed(1000 + k)
		args := x.sh.args(seed)
		path := filepath.Join(dir, fmt.Sprintf("job-%d.jsonl", k))
		var ref string
		if k == 0 {
			ref = path + ".ref"
		}
		in, err := prepareTorn(path, ref, args, trials, x.e.nproc, jal)
		if err != nil {
			return err
		}
		submit := tr.now()
		st, err := sup.Submit(jobs.Spec{Trials: trials, Config: args, Workers: x.e.nproc, Out: path})
		if err != nil {
			return err
		}
		for !st.State.Terminal() {
			time.Sleep(pollEvery)
			st, _ = sup.Job(st.ID)
		}
		finished = append(finished, done{path, seed, in, st, submit, tr.now()})
	}
	if err := sup.Drain(context.Background()); err != nil {
		return err
	}
	check := newChecker(x.sh)
	var build, salvage, stream, report, wait, overhead, readNs, salvaged, records, lines, evBytes int64
	for _, d := range finished {
		x.attempted++
		jt, ok := times[d.path]
		if !ok {
			x.mismatch("%s: the traced Run never ran", d.path)
			continue
		}
		js := tr.add(spanJob, -1, d.submit, d.final)
		tr.add(spanQueueWait, js, d.submit, jt.entered)
		rs := tr.add(spanJobRun, js, jt.entered, jt.reported)
		tr.add(spanBuildSegments, rs, jt.entered, jt.built)
		tr.add(spanSalvage, rs, jt.built, jt.salvaged)
		tr.add(spanStream, rs, jt.salvaged, jt.streamed)
		tr.add(spanReport, rs, jt.streamed, jt.reported)
		build += jt.built - jt.entered
		salvage += jt.salvaged - jt.built
		stream += jt.streamed - jt.salvaged
		report += jt.reported - jt.streamed
		wait += jt.entered - d.submit
		overhead += d.final - jt.reported
		salvaged += int64(jt.records)

		ev, err := os.ReadFile(d.path + ".events.jsonl")
		if err != nil {
			x.mismatch("%v", err)
		}
		lines += int64(bytes.Count(ev, []byte{'\n'}))
		evBytes += int64(len(ev))

		s := tr.now()
		f, err := os.Open(d.path)
		if err == nil {
			var recs []sink.Record
			recs, err = sink.ReadRecords(f)
			f.Close()
			records += int64(len(recs))
		}
		readNs += tr.now() - s - tr.clock
		if err == nil {
			_, err = checkResumed(check, d.st, d.in, d.seed, trials)
		}
		if err != nil {
			x.mismatch("%s: %v", d.path, err)
		}
	}
	n := float64(max(len(finished), 1))
	ms := func(ns int64) float64 { return float64(ns) / 1e6 / n }
	x.m["jobs.build_segments_ms"] = ms(build)
	x.m["jobs.salvage_ns_per_record"] = float64(salvage) / float64(max(salvaged, 1))
	x.m["jobs.stream_ms_per_job"] = ms(stream)
	x.m["jobs.report_ms"] = ms(report)
	x.m["jobs.queue_wait_ms"] = ms(wait)
	x.m["jobs.supervisor_overhead_ms"] = ms(overhead)
	x.m["sink.read_ns_per_record"] = float64(readNs) / float64(max(records, 1))
	x.m["events.lines_per_job"] = float64(lines) / n
	x.m["events.bytes_per_job"] = float64(evBytes) / n
	return nil
}
