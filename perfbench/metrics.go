package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"time"
)

// setTraceLayer reports the tracing overhead (the untraced half's rate
// against the traced half's), how much of the load thread's wall time
// the spans account for, and each layer's self time as a share of the
// traced phase.
func setTraceLayer(out *outcome, tr *tracer, untracedRate, tracedRate float64, wall time.Duration, load *thread) {
	m := out.layer
	setMetric(m, "trace.overhead_pct", 100*ratio(untracedRate-tracedRate, untracedRate), "%")
	setMetric(m, "trace.covered_pct", 100*ratio(float64(load.topNs), float64(wall)), "%")
	self := tr.layerSelf()
	for _, layer := range []string{"bench", "formats", "pipeline", "netsim", "server", "analysis"} {
		setMetric(m, "self."+layer+"_pct", 100*ratio(float64(self[layer]), float64(wall)), "%")
	}
}

// definitionsFile holds the metric definitions; the benchmark runs from
// the repository root.
const definitionsFile = "BENCHMARK.json"

// definitions reads the names and units of the end-to-end or, traced,
// the per-layer metrics from definitionsFile.
func definitions(traced bool) (map[string]string, error) {
	raw, err := os.ReadFile(definitionsFile)
	if err != nil {
		return nil, err
	}
	type def struct{ Name, Unit string }
	var file struct {
		EndToEnd []def `json:"end_to_end"`
		PerLayer []def `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &file); err != nil {
		return nil, fmt.Errorf("%s: %v", definitionsFile, err)
	}
	defs := file.EndToEnd
	if traced {
		defs = file.PerLayer
	}
	units := make(map[string]string, len(defs))
	for _, d := range defs {
		units[d.Name] = d.Unit
	}
	return units, nil
}

// finish fills the per-layer metrics that do not apply to a workload
// with 0 and refuses names or units outside the definitions.
func finish(out *outcome, traced bool) error {
	want, err := definitions(traced)
	if err != nil {
		return err
	}
	got := out.e2e
	if traced {
		got = out.layer
	}
	for name, m := range got {
		if unit, ok := want[name]; !ok || unit != m.Unit {
			return fmt.Errorf("metric %s (%s) is not defined", name, m.Unit)
		}
	}
	var missing []string
	for name, unit := range want {
		if _, ok := got[name]; ok {
			continue
		}
		if !traced {
			missing = append(missing, name)
			continue
		}
		got[name] = metric{Value: 0, Unit: unit}
	}
	if len(missing) > 0 {
		sort.Strings(missing)
		return fmt.Errorf("end-to-end metrics not measured: %v", missing)
	}
	return nil
}
