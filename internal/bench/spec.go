package bench

import (
	"encoding/json"
	"fmt"
	"os"
)

// MetricSpec is one metric as BENCHMARK.json declares it. Bound is the share
// of the parent's median by which an end-to-end metric may worsen; per-layer
// metrics have none.
type MetricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// Spec is BENCHMARK.json. It is the one place metric names, units and
// bounds are written down: the harness emits exactly the metrics it lists
// (a workload that has nothing to say about a per-layer metric reports 0,
// which is the "this layer did no work here" the tables in README.md
// predict), and -compare reads its bounds.
type Spec struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []MetricSpec `json:"end_to_end"`
	PerLayer []MetricSpec `json:"per_layer"`
}

// LoadSpec reads BENCHMARK.json from path.
func LoadSpec(path string) (*Spec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("bench: reading benchmark spec: %w", err)
	}
	var s Spec
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("bench: parsing %s: %w", path, err)
	}
	if len(s.EndToEnd) == 0 || len(s.PerLayer) == 0 {
		return nil, fmt.Errorf("bench: %s lists no metrics", path)
	}
	return &s, nil
}

func (s *Spec) metrics(trace bool) []MetricSpec {
	if trace {
		return s.PerLayer
	}
	return s.EndToEnd
}
