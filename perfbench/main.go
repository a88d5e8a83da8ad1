// Command perfbench is the repository benchmark: workloads that run
// the Camus dataplane and control plane the way users run them, from
// wire bytes to deliveries and from HTTP requests to installed switch
// programs, and check every output against an independent reference.
//
// Usage (from the repository root; run.sh builds and runs it):
//
//	perfbench --workload itch-feed --seed 1 --seconds 10 --trace 0
//
// Workloads: itch-feed, churn, churn-certified (see
// METRICS.md for why each exists and which layer metric should move
// which end-to-end metric).
//
// With --trace 0 the run is untraced and reports the end-to-end metrics.
// With --trace 1 the run measures an untraced half and a traced half on
// the same set-up, reports the per-layer metrics of the traced half, the
// tracing overhead (the gap between the halves), and writes every span
// to --trace-dir.
//
// Human-readable lines go to standard output first; the last line is one
// JSON object {"correct", "attempted", "failed", "metrics"}. The exit
// code is non-zero when any output check fails.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strings"
)

// options are the command-line settings of one run.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	traceDir string
	workDir  string
	// setups is how many times the workload is set up; setup_s is the
	// median. 0 means the workload's default.
	setups int
}

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// outcome is what a workload run hands back to main.
type outcome struct {
	attempted int64
	failed    int64
	// mismatches lists reference-check disagreements (first few).
	mismatches []string
	// e2e are the end-to-end metrics (untraced run), layer the per-layer
	// metrics (traced run).
	e2e   map[string]metric
	layer map[string]metric
	// lines are extra human-readable report lines.
	lines []string
}

// setMetric records one metric value with its unit.
func setMetric(m map[string]metric, name string, v float64, unit string) {
	m[name] = metric{Value: v, Unit: unit}
}

func (o *outcome) mismatch(format string, args ...any) {
	o.failed++
	if len(o.mismatches) < 8 {
		o.mismatches = append(o.mismatches, fmt.Sprintf(format, args...))
	}
}

type workloadFunc func(o options, tr *tracer) (*outcome, error)

var workloads = map[string]workloadFunc{
	"itch-feed":       runITCHFeed,
	"churn":           func(o options, tr *tracer) (*outcome, error) { return runChurn(o, tr, false) },
	"churn-certified": func(o options, tr *tracer) (*outcome, error) { return runChurn(o, tr, true) },
}

func main() {
	var o options
	var trace int
	flag.StringVar(&o.workload, "workload", "", "workload name: itch-feed, churn, churn-certified")
	flag.Int64Var(&o.seed, "seed", 1, "workload seed: the same seed gives the same inputs")
	flag.Float64Var(&o.seconds, "seconds", 10, "measured seconds")
	flag.IntVar(&trace, "trace", 0, "1 = traced run reporting per-layer metrics, 0 = untraced end-to-end run")
	flag.StringVar(&o.traceDir, "trace-dir", ".bench_build/traces", "where a traced run writes its spans")
	flag.StringVar(&o.workDir, "work-dir", ".bench_build/work", "scratch directory for the daemon's event logs")
	flag.Parse()
	o.trace = trace == 1
	if trace != 0 && trace != 1 {
		fatalf("--trace must be 0 or 1")
	}
	res, lines, err := run(o)
	if err != nil {
		fatalf("%v", err)
	}
	for _, l := range lines {
		fmt.Println(l)
	}
	buf, err := json.Marshal(res)
	if err != nil {
		fatalf("%v", err)
	}
	fmt.Println(string(buf))
	if !res.Correct || res.Failed != 0 {
		os.Exit(1)
	}
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...)
	os.Exit(2)
}

// run executes one workload and assembles the report lines and the
// result object.
func run(o options) (*result, []string, error) {
	fn, ok := workloads[o.workload]
	if !ok {
		return nil, nil, fmt.Errorf("unknown workload %q", o.workload)
	}
	if o.seconds <= 0 {
		return nil, nil, fmt.Errorf("--seconds must be positive")
	}
	tr := newTracer()
	out, err := fn(o, tr)
	if err != nil {
		return nil, nil, err
	}
	if err := finish(out, o.trace); err != nil {
		return nil, nil, err
	}
	lines := []string{
		fmt.Sprintf("perfbench workload=%s seed=%d seconds=%g trace=%t", o.workload, o.seed, o.seconds, o.trace),
		"host: " + hostFingerprint(),
	}
	lines = append(lines, out.lines...)
	for _, m := range out.mismatches {
		lines = append(lines, "CHECK FAILED: "+m)
	}
	failRatio := 0.0
	if out.attempted > 0 {
		failRatio = float64(out.failed) / float64(out.attempted)
	}
	lines = append(lines, fmt.Sprintf("fail_ratio = %g (%d failed / %d attempted)", failRatio, out.failed, out.attempted))
	metrics := out.e2e
	if o.trace {
		metrics = out.layer
		path, err := tr.write(o.traceDir, o.workload, o.seed)
		if err != nil {
			return nil, nil, err
		}
		lines = append(lines, fmt.Sprintf("trace: %d spans, written to %s", tr.spanCount(), path))
	}
	lines = append(lines, formatMetrics(metrics)...)
	res := &result{
		Correct:   len(out.mismatches) == 0 && out.failed == 0 && out.attempted > 0,
		Attempted: out.attempted,
		Failed:    out.failed,
		Metrics:   metrics,
	}
	return res, lines, nil
}

func formatMetrics(m map[string]metric) []string {
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	out := make([]string, len(names))
	for i, n := range names {
		out[i] = fmt.Sprintf("metric %-34s %14.6g %s", n, m[n].Value, m[n].Unit)
	}
	return out
}

// hostFingerprint stamps a result with the machine it was measured on.
func hostFingerprint() string {
	cpu := "unknown"
	if info, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(info), "\n") {
			if name, value, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(name) == "model name" {
				cpu = strings.TrimSpace(value)
				break
			}
		}
	}
	return fmt.Sprintf("cpu=%q NumCPU=%d GOMAXPROCS=%d go=%s %s/%s",
		cpu, runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), runtime.GOOS, runtime.GOARCH)
}
