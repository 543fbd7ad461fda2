// Command perfbench is the THEMIS reproduction's benchmark. It runs one
// workload per process and prints, as the last line of standard output,
// one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end ones (see e2eMetrics);
// with -trace 1 they are the per-layer ones (see layerMetrics), and the
// run's spans and per-step counter deltas are written to
// .bench_build/trace-<workload>-<seed>.json. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// metricDef names one reported metric and its unit.
type metricDef struct{ name, unit string }

// e2eMetrics are the end-to-end metrics every untraced run reports, in
// BENCHMARK.json order.
var e2eMetrics = []metricDef{
	{"setup_s", "s"},
	{"step_ms_p50", "ms"},
	{"step_ms_p95", "ms"},
	{"tuples_per_s", "1/s"},
	{"cpu_ns_per_tuple", "ns"},
	{"submit_us_p50", "us"},
	{"submit_us_p95", "us"},
	{"retract_us_p50", "us"},
	{"retract_us_p95", "us"},
	{"recovery_ticks", "ticks"},
	{"jain", "index"},
	{"mean_sic", "sic"},
	{"ok_ops_frac", "fraction"},
	{"max_rss_mb", "MB"},
}

// layerMetrics are the per-layer metrics every traced run reports. A
// layer a workload bypasses reports 0 (README.md lists which).
var layerMetrics = []metricDef{
	{"sources.emit_ns_per_step", "ns"},
	{"sources.tuples_per_step", "count"},
	{"query.exec_ns_per_step", "ns"},
	{"core.select_ns_per_call", "ns"},
	{"node.select_ns_per_step", "ns"},
	{"node.select_calls_per_step", "count"},
	{"node.shed_frac", "fraction"},
	{"node.arrived_skew", "ratio"},
	{"node.shared_instances", "count"},
	{"node.subscriptions", "count"},
	{"node.dedup_ratio", "ratio"},
	{"node.dropped_tuples", "count"},
	{"node.state_left", "count"},
	{"stream.pool_live_end", "count"},
	{"coordinator.ns_per_step", "ns"},
	{"sic.ns_per_step", "ns"},
	{"federation.ckpt_step_ms", "ms"},
	{"federation.plain_step_ms", "ms"},
	{"federation.kill_ms", "ms"},
	{"federation.join_ms", "ms"},
	{"federation.other_ns_per_step", "ns"},
	{"parallel.speedup", "ratio"},
	{"cql.plan_us_cold", "us"},
	{"cql.plan_us_warm", "us"},
	{"cql.cache_hit_frac", "fraction"},
	{"transport.node_tick_ms", "ms"},
	{"transport.ticks_on_time_frac", "fraction"},
	{"runtime.allocs_per_step", "count"},
	{"runtime.gc_cpu_frac", "fraction"},
	{"trace.overhead_frac", "fraction"},
}

// runConfig is what every workload receives from the command line.
type runConfig struct {
	seed    int64
	seconds float64
	trace   bool
	tr      *tracer
	ops     *ledger
}

// outcome is what a workload hands back: both metric sets (only one is
// printed) plus anything worth keeping in the trace file.
type outcome struct {
	e2e   map[string]float64
	layer map[string]float64
	info  map[string]any
}

// duration is the measured time a run aims for.
func (rc *runConfig) duration() time.Duration {
	return time.Duration(rc.seconds * float64(time.Second))
}

func newOutcome() *outcome {
	return &outcome{e2e: map[string]float64{}, layer: map[string]float64{}, info: map[string]any{}}
}

var workloads = map[string]func(*runConfig) *outcome{
	"paper-overload": runPaperOverload,
	// dashboards is not listed in BENCHMARK.json: its timings swing with
	// the host's load too much to gate changes on (README.md,
	// "Steadiness").
	"dashboards": func(rc *runConfig) *outcome { return runDashboards(rc, teardownRiders) },
	// dashboards-teardown is dashboards ending in a full teardown in
	// seeded random order. It is not listed in BENCHMARK.json either,
	// because the teardown crashes the engine (README.md, "Known defect").
	"dashboards-teardown": func(rc *runConfig) *outcome { return runDashboards(rc, teardownRandom) },
	"net-overload":        runNetOverload,
}

func main() { os.Exit(run()) }

func run() int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	workload := fs.String("workload", "", "workload name")
	seed := fs.Int64("seed", 1, "workload seed")
	seconds := fs.Float64("seconds", 10, "measured seconds per run")
	trace := fs.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	if err := fs.Parse(os.Args[1:]); err != nil {
		return 2
	}
	fn, ok := workloads[*workload]
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments (workload %q, seconds %v, trace %d)\n", *workload, *seconds, *trace)
		return 2
	}
	env, err := recordEnv()
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 2
	}
	rc := &runConfig{seed: *seed, seconds: *seconds, trace: *trace == 1, ops: &ledger{}}
	rc.tr = newTracer(rc.trace)
	start := time.Now()
	out := fn(rc)
	fmt.Fprintf(os.Stderr, "perfbench: %s seed=%d took %.1fs\n", *workload, *seed, time.Since(start).Seconds())

	defs := e2eMetrics
	vals := out.e2e
	if rc.trace {
		defs, vals = layerMetrics, out.layer
	}
	metrics := make(map[string]map[string]any, len(defs))
	for _, d := range defs {
		v, ok := vals[d.name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			fmt.Fprintf(os.Stderr, "perfbench: metric %s missing or not finite (%v)\n", d.name, v)
			return 3
		}
		metrics[d.name] = map[string]any{"value": v, "unit": d.unit}
	}
	if rc.trace {
		if err := rc.tr.write(*workload, *seed, env, out); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: writing trace: %v\n", err)
			return 3
		}
	}
	envLine, _ := json.Marshal(env)
	fmt.Printf("env %s\n", envLine)
	if len(out.info) > 0 {
		infoLine, _ := json.Marshal(out.info)
		fmt.Printf("info %s\n", infoLine)
	}
	line, err := json.Marshal(map[string]any{
		"correct":   rc.ops.checksFailed == 0,
		"attempted": rc.ops.attempted,
		"failed":    rc.ops.failed,
		"metrics":   metrics,
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 3
	}
	fmt.Println(string(line))
	return 0
}

// ledger counts operations — control calls into the program plus output
// checks — and which of them failed.
type ledger struct {
	attempted, failed int64
	checksFailed      int64
}

// op records one control call.
func (l *ledger) op(err error, what string) bool {
	l.attempted++
	if err != nil {
		l.failed++
		fmt.Fprintf(os.Stderr, "perfbench: %s failed: %v\n", what, err)
		return false
	}
	return true
}

// check records one output check.
func (l *ledger) check(ok bool, format string, args ...any) bool {
	l.attempted++
	if !ok {
		l.failed++
		l.checksFailed++
		fmt.Fprintf(os.Stderr, "perfbench: check failed: "+format+"\n", args...)
	}
	return ok
}

// unattempted counts operations a run gave up on as failed.
func (l *ledger) unattempted(n int) {
	l.attempted += int64(n)
	l.failed += int64(n)
}

func (l *ledger) okFrac() float64 {
	return float64(l.attempted-l.failed) / float64(l.attempted)
}

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics. xs is sorted in place.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	pos := q * float64(len(xs)-1)
	lo := int(pos)
	if lo+1 >= len(xs) {
		return xs[len(xs)-1]
	}
	return xs[lo] + (pos-float64(lo))*(xs[lo+1]-xs[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// durs converts durations to float64s in the given unit.
func durs(ds []time.Duration, unit time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / float64(unit)
	}
	return out
}

// putTimings stores p50/p95 of ds under prefix, requiring the sample
// count a p95 needs (ten samples beyond it).
func putTimings(m map[string]float64, ops *ledger, prefix string, ds []time.Duration, unit time.Duration) {
	ops.check(len(ds) >= 200, "%s has %d samples, a p95 needs 200", prefix, len(ds))
	xs := durs(ds, unit)
	m[prefix+"_p50"] = quantile(xs, 0.5)
	m[prefix+"_p95"] = quantile(xs, 0.95)
}

// tracePath is where a traced run leaves its spans.
func tracePath(workload string, seed int64) string {
	return filepath.Join(".bench_build", fmt.Sprintf("trace-%s-%d.json", workload, seed))
}
