package main

import (
	"encoding/json"
	"os"
	"regexp"
	"strings"
	"testing"
)

// benchmarkFile is the part of BENCHMARK.json the smoke test checks.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name, Unit string
	} `json:"end_to_end"`
	PerLayer []struct {
		Name, Unit string
	} `json:"per_layer"`
}

// TestMain runs the tests from the repository root, where the benchmark
// runs and reads its definitions.
func TestMain(m *testing.M) {
	if err := os.Chdir(".."); err != nil {
		panic(err)
	}
	os.Exit(m.Run())
}

func loadBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	raw, err := os.ReadFile(definitionsFile)
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkFile
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	return b
}

// issueMetrics are the end-to-end metrics each workload prints by its
// own name in the report lines.
var issueMetrics = map[string][]string{
	"itch-feed":       {"pkt_rate_mpps", "batch_p50_us", "batch_tail_us"},
	"churn":           {"update_rate", "update_p50_ms", "update_tail_ms", "pub_p50_us", "pub_tail_us"},
	"churn-certified": {"update_rate", "update_p50_ms", "update_tail_ms", "pub_p50_us", "pub_tail_us"},
}

var metricLine = regexp.MustCompile(`^([a-z_0-9]+) = ([-+0-9.e]+) ([A-Za-z0-9/%]+)`)

// TestSmoke runs every workload briefly, untraced and traced, and checks
// that each named metric is printed with its unit and nothing failed.
func TestSmoke(t *testing.T) {
	b := loadBenchmarkFile(t)
	for _, w := range b.Workloads {
		for _, traced := range []bool{false, true} {
			o := options{workload: w.Name, seed: 7, seconds: 0.6, trace: traced, setups: 1,
				traceDir: t.TempDir(), workDir: t.TempDir()}
			res, lines, err := run(o)
			if err != nil {
				t.Fatalf("%s trace=%t: %v", w.Name, traced, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Fatalf("%s trace=%t: correct=%t failed=%d attempted=%d\n%s",
					w.Name, traced, res.Correct, res.Failed, res.Attempted, strings.Join(lines, "\n"))
			}
			want := b.EndToEnd
			if traced {
				want = b.PerLayer
			}
			for _, m := range want {
				got, ok := res.Metrics[m.Name]
				if !ok || got.Unit != m.Unit {
					t.Errorf("%s trace=%t: metric %s missing or without unit %s", w.Name, traced, m.Name, m.Unit)
				}
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%t: %d metrics, want %d", w.Name, traced, len(res.Metrics), len(want))
			}
			if traced {
				continue
			}
			printed := map[string]string{}
			failRatio := ""
			for _, l := range lines {
				if m := metricLine.FindStringSubmatch(l); m != nil {
					printed[m[1]] = m[3]
				}
				if strings.HasPrefix(l, "fail_ratio = ") {
					failRatio = strings.Fields(l)[2]
				}
			}
			for _, name := range append([]string{"setup_s", "heap_peak_mb"}, issueMetrics[w.Name]...) {
				if printed[name] == "" {
					t.Errorf("%s: %s not printed with a unit:\n%s", w.Name, name, strings.Join(lines, "\n"))
				}
			}
			if failRatio != "0" {
				t.Errorf("%s: fail_ratio = %q, want 0", w.Name, failRatio)
			}
		}
	}
}
