package main

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/explore"
	"repro/internal/machine"
	"repro/internal/spec"
	"repro/internal/suite"
)

// check-heavy: explore.Run at the suite's options (dedup on) but one
// worker, over the four costliest verified scenarios by one-worker time
// (re-derive with -rank) plus two seeded-bug controls. One operation is
// one pass over all six: the time until every verdict is in. One worker
// because on a shared host the second CPU's stolen time made two-worker
// pass times spread three times wider (README.md).
var (
	heavyVerified = []string{
		"mb/nospace+clean-abort",       // refinement checking: 31,690 executions, complete
		"mb/replicated+crash+net",      // network and crash branching, budget-bounded
		"mb/replicated+failstop",       // budget-bounded
		"mb/writeback+sync-discipline", // writeback crash enumeration, budget-bounded
	}
	heavyBugs = []string{
		"mb/nospace-bug:gc-eats-live-spool",
		"mb/repl-bug:resync-skips-epoch",
	}
)

const (
	checkWorkers = 1
	// warmupExecutions bounds each scenario's set-up exploration.
	warmupExecutions = 300
)

// heavyEntries looks the scenarios up in the suite.
func heavyEntries() ([]suite.Entry, error) {
	byName := map[string]suite.Entry{}
	for _, e := range suite.All() {
		byName[e.Scenario.Name] = e
	}
	var out []suite.Entry
	for _, n := range append(append([]string{}, heavyVerified...), heavyBugs...) {
		e, ok := byName[n]
		if !ok {
			return nil, fmt.Errorf("scenario %s is not in the suite", n)
		}
		out = append(out, e)
	}
	return out, nil
}

// budget is the execution budget explore.Run applies to e.
func budget(e suite.Entry) int {
	if e.Opts.MaxExecutions == 0 {
		return 20000
	}
	return e.Opts.MaxExecutions
}

// verdict checks one report against what the entry must show.
func verdict(e suite.Entry, rep *explore.Report) error {
	name := e.Scenario.Name
	if e.WantViolation {
		if rep.OK() {
			return fmt.Errorf("%s: seeded bug not convicted in %d executions", name, rep.Executions)
		}
		if explore.ReplayCx(e.Scenario, rep.Counterexample.Choices) == nil {
			return fmt.Errorf("%s: counterexample %v does not replay", name, rep.Counterexample.Choices)
		}
		return nil
	}
	if !rep.OK() {
		return fmt.Errorf("%s: violation: %s", name, rep.Counterexample.Reason)
	}
	if rep.Complete && rep.Executions >= budget(e) {
		return fmt.Errorf("%s: reported complete after %d executions, which is the whole budget", name, rep.Executions)
	}
	if !rep.Complete && rep.Executions < budget(e) {
		return fmt.Errorf("%s: budget-bounded after only %d of %d executions", name, rep.Executions, budget(e))
	}
	return nil
}

// checkSetUp builds the scenarios and explores a few hundred
// executions of each, so lazy initialisation is done before timing.
func checkSetUp(workers int) ([]suite.Entry, error) {
	es, err := heavyEntries()
	if err != nil {
		return nil, err
	}
	for _, e := range es {
		opts := e.Opts
		opts.MaxExecutions = warmupExecutions
		opts.Workers = workers
		explore.Run(e.Scenario, opts)
	}
	return es, nil
}

// checkPass runs every entry once and returns the pass's wall time.
func checkPass(o *outcome, es []suite.Entry) time.Duration {
	t0 := time.Now()
	for _, e := range es {
		opts := e.Opts
		opts.Workers = checkWorkers
		if err := verdict(e, explore.Run(e.Scenario, opts)); err != nil {
			o.fail("%v", err)
		}
	}
	return time.Since(t0)
}

func runCheck(c *config) *outcome {
	o := newOutcome()
	var es []suite.Entry
	var setups []float64
	for i := 0; i < nSetups; i++ {
		t0 := time.Now()
		var err error
		if es, err = checkSetUp(checkWorkers); err != nil {
			o.fail("set-up: %v", err)
			return o
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	o.set("setup_s", median(setups), len(setups))

	deadline := time.Now().Add(time.Duration(c.seconds * float64(time.Second)))
	cpu0 := cpuTime()
	t0 := time.Now()
	var lat []float64
	for len(lat) == 0 || time.Now().Before(deadline) {
		lat = append(lat, float64(checkPass(o, es)))
	}
	wall := time.Since(t0)
	cpu := cpuTime() - cpu0
	o.attempted = len(lat)
	sort.Float64s(lat)
	o.set("ops_per_s", float64(len(lat))/wall.Seconds(), len(lat))
	o.set("p50_us", quantile(lat, 0.50)/1e3, len(lat))
	o.set("p90_us", quantile(lat, 0.90)/1e3, len(lat))
	o.set("cpu_us_per_op", cpu.Seconds()*1e6/float64(len(lat)), len(lat))
	return o
}

// Phase categories of the traced checker run.
const (
	catSelf = iota // explore's own work, including the history search's book-keeping
	catMachine
	catSpec
	catFingerprint
	catInvariant
	nCats
)

// phaseClock charges wall time exclusively to whichever wrapped phase
// is innermost. With one worker only one goroutine runs scenario code
// at a time (machine threads hand off), so one stack suffices; the
// mutex orders the hand-offs for the race detector.
type phaseClock struct {
	mu     sync.Mutex
	stack  []int
	last   time.Time
	ns     [nCats]int64
	setups int // Setup calls since start: one per execution
}

func (p *phaseClock) start() {
	p.mu.Lock()
	p.stack = []int{catSelf}
	p.setups = 0
	p.last = time.Now()
	p.mu.Unlock()
}

func (p *phaseClock) enter(cat int) {
	p.mu.Lock()
	p.charge()
	p.stack = append(p.stack, cat)
	p.mu.Unlock()
}

func (p *phaseClock) exit() {
	p.mu.Lock()
	p.charge()
	p.stack = p.stack[:len(p.stack)-1]
	p.mu.Unlock()
}

// stop charges the tail of the run to the innermost category.
func (p *phaseClock) stop() {
	p.mu.Lock()
	p.charge()
	p.stack = nil
	p.mu.Unlock()
}

func (p *phaseClock) charge() {
	now := time.Now()
	p.ns[p.stack[len(p.stack)-1]] += int64(now.Sub(p.last))
	p.last = now
}

// timed returns a copy of s whose phase functions, spec, fingerprint
// and invariant charge their time to p.
func timed(s *explore.Scenario, p *phaseClock) *explore.Scenario {
	w := *s
	w.Spec = &timedSpec{inner: s.Spec, p: p}
	if f := s.Setup; f != nil {
		w.Setup = func(m *machine.Machine) any {
			p.enter(catMachine)
			defer p.exit()
			p.setups++
			return f(m)
		}
	}
	if f := s.Init; f != nil {
		w.Init = func(t *machine.T, x any) { p.enter(catMachine); defer p.exit(); f(t, x) }
	}
	if f := s.Main; f != nil {
		w.Main = func(t *machine.T, x any, h *explore.Harness) { p.enter(catMachine); defer p.exit(); f(t, x, h) }
	}
	if f := s.Recover; f != nil {
		w.Recover = func(t *machine.T, x any) { p.enter(catMachine); defer p.exit(); f(t, x) }
	}
	if f := s.Post; f != nil {
		w.Post = func(t *machine.T, x any, h *explore.Harness) { p.enter(catMachine); defer p.exit(); f(t, x, h) }
	}
	if f := s.Fingerprint; f != nil {
		w.Fingerprint = func(x any, b []byte) []byte { p.enter(catFingerprint); defer p.exit(); return f(x, b) }
	}
	if f := s.Invariant; f != nil {
		w.Invariant = func(m *machine.Machine, x any) error { p.enter(catInvariant); defer p.exit(); return f(m, x) }
	}
	return &w
}

// timedSpec charges the refinement checker's calls into the
// specification.
type timedSpec struct {
	inner spec.Interface
	p     *phaseClock
}

func (s *timedSpec) Name() string { return s.inner.Name() }

func (s *timedSpec) Init() spec.State {
	s.p.enter(catSpec)
	defer s.p.exit()
	return s.inner.Init()
}

func (s *timedSpec) Step(st spec.State, op spec.Op, ret spec.Ret) ([]spec.State, bool) {
	s.p.enter(catSpec)
	defer s.p.exit()
	return s.inner.Step(st, op, ret)
}

func (s *timedSpec) Crash(st spec.State) spec.State {
	s.p.enter(catSpec)
	defer s.p.exit()
	return s.inner.Crash(st)
}

func (s *timedSpec) Key(st spec.State) string {
	s.p.enter(catSpec)
	defer s.p.exit()
	return s.inner.Key(st)
}

// scenarioMetric names a scenario's per-layer time metric.
func scenarioMetric(name string) string {
	r := strings.NewReplacer("/", ".", "+", "-", ":", "-")
	return "explore." + r.Replace(name) + "_s"
}

func scenarioMetrics() []metricDef {
	var out []metricDef
	for _, n := range append(append([]string{}, heavyVerified...), heavyBugs...) {
		out = append(out, metricDef{name: scenarioMetric(n), unit: "s"})
	}
	return out
}

// tracedCheck runs one pass at one worker untraced, then one with every
// phase timed; one worker makes the phase times add up to wall time.
func tracedCheck(c *config) *outcome {
	o := newOutcome()
	es, err := checkSetUp(checkWorkers)
	if err != nil {
		o.fail("set-up: %v", err)
		return o
	}
	plain := checkPass(o, es)

	p := &phaseClock{}
	var execs, states, pruned int
	var ownNS int64
	t0 := time.Now()
	for _, e := range es {
		opts := e.Opts
		opts.Workers = checkWorkers
		w := timed(e.Scenario, p)
		p.start()
		s0 := time.Now()
		rep := explore.Run(w, opts)
		d := time.Since(s0)
		p.stop()
		o0 := time.Now()
		if err := verdict(e, rep); err != nil {
			o.fail("%v", err)
		}
		// Every execution starts with one Setup call; a count that
		// differs means the wrapped phases are not the ones explore ran.
		if p.setups != rep.Executions {
			o.fail("layer counts: %s made %d Setup calls in %d executions", e.Scenario.Name, p.setups, rep.Executions)
		}
		execs += rep.Executions
		states += rep.CheckedStates
		pruned += rep.Stats.PrunedStates
		o.set(scenarioMetric(e.Scenario.Name), d.Seconds(), 0)
		ownNS += int64(time.Since(o0))
	}
	wall := time.Since(t0)
	o.attempted = 1

	var sum int64
	for _, v := range p.ns {
		sum += v
	}
	errShare := math.Abs(float64(sum+ownNS-int64(wall))) / float64(wall)
	o.set("trace.reconcile_err", errShare, 0)
	o.note("reconcile: phases + benchmark time vs wall time off by %.3f%% (tolerance %.0f%%)", 100*errShare, 100*reconcileTolerance)
	if errShare > reconcileTolerance {
		o.fail("reconcile: phase times plus benchmark time are %.2f%% off wall time, tolerance %.0f%%", 100*errShare, 100*reconcileTolerance)
	}
	o.set("machine.run_s", float64(p.ns[catMachine])/1e9, 0)
	o.set("history.spec_s", float64(p.ns[catSpec])/1e9, 0)
	o.set("explore.fingerprint_s", float64(p.ns[catFingerprint])/1e9, 0)
	o.set("explore.invariant_s", float64(p.ns[catInvariant])/1e9, 0)
	o.set("explore.self_s", float64(p.ns[catSelf])/1e9, 0)
	o.set("explore.executions", float64(execs), 0)
	o.set("explore.checker_states", float64(states), 0)
	o.set("explore.pruned", float64(pruned), 0)
	o.set("trace.slowdown", float64(wall)/float64(plain), 0)
	return o
}

// rankScenarios runs every verified scenario once at one worker and
// prints them by time, costliest first.
func rankScenarios(w io.Writer) {
	type row struct {
		name string
		d    time.Duration
		rep  *explore.Report
	}
	heaviest := map[string]bool{}
	for _, e := range suite.Heaviest() {
		heaviest[e.Scenario.Name] = true
	}
	var rows []row
	for _, e := range suite.Verified() {
		opts := e.Opts
		opts.Workers = 1
		t0 := time.Now()
		rep := explore.Run(e.Scenario, opts)
		rows = append(rows, row{e.Scenario.Name, time.Since(t0), rep})
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].d > rows[j].d })
	fmt.Fprintf(w, "%-36s %9s %11s %14s  %s\n", "scenario (1 worker)", "time", "executions", "checker states", "verdict")
	for _, r := range rows {
		v := "OK complete"
		if !r.rep.Complete {
			v = "OK budget-bounded"
		}
		if !r.rep.OK() {
			v = "VIOLATION"
		}
		if heaviest[r.name] {
			v += "  [suite.Heaviest]"
		}
		fmt.Fprintf(w, "%-36s %8.2fs %11d %14d  %s\n", r.name, r.d.Seconds(), r.rep.Executions, r.rep.CheckedStates, v)
	}
}
