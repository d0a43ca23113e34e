// Command mailperf is Mailboat's benchmark. It drives three workloads,
// each placed so that one layer does most of the work, checks every
// output against its own ledger, and prints one JSON result line.
//
//	mailperf -root DIR -workload NAME -seed N -seconds S -trace 0|1
//	mailperf -root DIR -rank
//
// With -trace 0 it reports end-to-end metrics from an uninstrumented
// run; with -trace 1 it reports per-layer metrics from a run that wraps
// the public interfaces between layers, plus the tracing overhead and a
// reconciliation of the layer times against wall time. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
)

// config is one invocation's settings.
type config struct {
	root    string // repository root; all files live under root/.bench_build
	seed    int64
	seconds float64
}

// storeDir returns a fresh, empty directory for a store.
func (c *config) storeDir(name string) (string, error) {
	base := filepath.Join(c.root, ".bench_build", "stores")
	if err := os.MkdirAll(base, 0o755); err != nil {
		return "", err
	}
	return os.MkdirTemp(base, name+"-")
}

// outcome is what one workload run reports.
type outcome struct {
	attempted, failed int
	errs              []string
	metrics           map[string]float64
	samples           map[string]int // sample count behind a metric, when it is a quantile or mean
	notes             []string       // extra human-readable lines (storage medium, reconciliation)
}

func newOutcome() *outcome {
	return &outcome{metrics: map[string]float64{}, samples: map[string]int{}}
}

// fail records a correctness failure; the run then exits non-zero.
func (o *outcome) fail(format string, args ...any) {
	o.errs = append(o.errs, fmt.Sprintf(format, args...))
}

func (o *outcome) set(name string, v float64, n int) {
	o.metrics[name] = v
	if n > 0 {
		o.samples[name] = n
	}
}

func (o *outcome) note(format string, args ...any) {
	o.notes = append(o.notes, fmt.Sprintf(format, args...))
}

// workload is one benchmark workload: an untraced run for end-to-end
// metrics and a traced run for per-layer metrics.
type workload struct {
	run    func(c *config) *outcome
	traced func(c *config) *outcome
	procs  int // GOMAXPROCS for the whole run; 0 keeps the default
}

var workloads = map[string]workload{
	"lib-zipf-8k": {run: libZipf.run, traced: libZipf.traced},
	// The daemon workload runs its client and the servers on one CPU:
	// loopback hand-offs between goroutines on two CPUs made its latency
	// and throughput swing with the host's stolen time (README.md).
	"daemon-mirror-1k": {run: daemonMirror.run, traced: daemonMirror.traced, procs: 1},
	"check-heavy":      {run: runCheck, traced: tracedCheck},
}

func main() {
	root := flag.String("root", ".", "repository root (stores and build output go under its .bench_build/)")
	name := flag.String("workload", "", "workload to run: lib-zipf-8k, daemon-mirror-1k, check-heavy")
	seed := flag.Int64("seed", 1, "input seed")
	seconds := flag.Float64("seconds", 15, "length of the timed phase")
	traced := flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	rank := flag.Bool("rank", false, "rank every verified checker scenario by its one-worker time and exit")
	flag.Parse()

	c := &config{root: *root, seed: *seed, seconds: *seconds}
	// Stores left behind by an interrupted run would skew space and time.
	os.RemoveAll(filepath.Join(c.root, ".bench_build", "stores"))
	if *rank {
		rankScenarios(os.Stdout)
		return
	}
	w, ok := workloads[*name]
	if !ok {
		fmt.Fprintf(os.Stderr, "mailperf: unknown workload %q\n", *name)
		os.Exit(2)
	}
	if w.procs > 0 {
		runtime.GOMAXPROCS(w.procs)
	}
	for _, l := range stamp(c.root) {
		fmt.Println(l)
	}
	fmt.Printf("workload %s seed %d seconds %g trace %d\n", *name, *seed, *seconds, *traced)

	var o *outcome
	want := endToEnd
	if *traced == 1 {
		o = w.traced(c)
		want = perLayer
	} else {
		o = w.run(c)
	}
	code := report(o, want)
	settle()
	os.Exit(code)
}

// report prints every metric with its unit and sample count, then the
// JSON result line, and returns the exit code.
func report(o *outcome, want []metricDef) int {
	for _, n := range o.notes {
		fmt.Println(n)
	}
	out := map[string]any{}
	for _, m := range want {
		v, ok := o.metrics[m.name]
		if !ok {
			if m.always {
				o.fail("metric %s was not measured", m.name)
			}
			// A layer this workload does not pass through spends no time
			// and does no work there.
			v = 0
		}
		line := fmt.Sprintf("%-36s %14.6g %s", m.name, v, m.unit)
		if n := o.samples[m.name]; n > 0 {
			line += fmt.Sprintf("  (n=%d)", n)
		}
		fmt.Println(line)
		out[m.name] = map[string]any{"value": v, "unit": m.unit}
	}
	// The workloads are chosen so that no operation fails; a failed
	// delivery or pickup is a fault of the program, even when it aborted
	// cleanly and the audit still holds.
	if o.failed > 0 {
		o.fail("%d of %d operations failed", o.failed, o.attempted)
	}
	var extra []string
	for k := range o.metrics {
		if !defined(endToEnd, k) && !defined(perLayer, k) {
			extra = append(extra, k)
		}
	}
	sort.Strings(extra)
	if len(extra) > 0 {
		o.fail("metrics outside the declared set: %s", strings.Join(extra, ", "))
	}
	for _, e := range o.errs {
		fmt.Println("CHECK FAILED:", e)
	}
	fmt.Printf("attempted %d failed %d\n", o.attempted, o.failed)
	correct := len(o.errs) == 0
	line, _ := json.Marshal(map[string]any{
		"correct":   correct,
		"attempted": o.attempted,
		"failed":    o.failed,
		"metrics":   out,
	})
	fmt.Println(string(line))
	if !correct {
		return 1
	}
	return 0
}

func defined(defs []metricDef, name string) bool {
	for _, d := range defs {
		if d.name == name {
			return true
		}
	}
	return false
}

// metricDef names a reported metric. always means every workload must
// measure it; per-layer metrics of a layer a workload bypasses read 0.
type metricDef struct {
	name, unit string
	always     bool
}

// endToEnd are the metrics a user sees, measured without tracing. An
// operation is one delivery or one pickup session on the mail
// workloads and one scenario verdict on check-heavy.
var endToEnd = []metricDef{
	{"setup_s", "s", true},
	{"ops_per_s", "ops/s", true},
	{"p50_us", "us", true},
	{"p90_us", "us", true},
	{"cpu_us_per_op", "us", true},
}

// perLayer are the traced run's metrics; README.md says which
// end-to-end metric each should move, on which workload.
var perLayer = append([]metricDef{
	{"trace.slowdown", "x", true},
	{"trace.reconcile_err", "share", true},
	{"store.recover_s", "s", false},
	{"store.bytes_per_msg_byte", "B/B", false},
	{"mailboat.deliver_self_us", "us", false},
	{"mailboat.pickup_self_us", "us", false},
	{"mailboat.recover_self_s", "s", false},
	{"gfs.deliver_us", "us", false},
	{"gfs.pickup_us", "us", false},
	{"gfs.calls_per_deliver", "count", false},
	{"gfs.calls_per_pickup", "count", false},
	{"gfs.creates_per_deliver", "count", false},
	{"gfs.bytes_appended_per_msg_byte", "B/B", false},
	{"gfs.create_us", "us", false},
	{"gfs.append_us", "us", false},
	{"gfs.link_us", "us", false},
	{"gfs.delete_us", "us", false},
	{"gfs.list_us", "us", false},
	{"gfs.open_us", "us", false},
	{"gfs.readat_us", "us", false},
	{"gfs.recover_calls", "count", false},
	{"gfs.recover_s", "s", false},
	{"smtp.deliver_self_us", "us", false},
	{"pop3.session_self_us", "us", false},
	{"mailboatd.deliver_us", "us", false},
	{"mailboatd.pickup_us", "us", false},
	{"mailboatd.delete_us", "us", false},
	{"mailboatd.calls_per_session", "count", false},
	{"explore.executions", "count", false},
	{"explore.checker_states", "count", false},
	{"explore.pruned", "count", false},
	{"machine.run_s", "s", false},
	{"history.spec_s", "s", false},
	{"explore.fingerprint_s", "s", false},
	{"explore.invariant_s", "s", false},
	{"explore.self_s", "s", false},
}, scenarioMetrics()...)

// nSetups is how many set-ups a run times; it reports their median.
const nSetups = 3
