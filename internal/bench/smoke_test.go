package bench

import (
	"math"
	"testing"
)

// TestSmoke runs every workload at toy size, untraced and traced, and checks
// that each metric BENCHMARK.json names comes out once, finite, with its
// unit, and that every output check passes. It exists so that the ordinary
// `go test ./...` catches harness rot; it measures nothing.
func TestSmoke(t *testing.T) {
	spec, err := LoadSpec("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if got, want := len(spec.Workloads), len(Names()); got != want {
		t.Fatalf("BENCHMARK.json lists %d workloads, the harness has %d", got, want)
	}
	toy := Sizes{
		Setups:     1,
		StormNodes: 8, RackSize: 8,
		DiscoverSessions: 4, SessionSize: 16, RoundSeconds: 10,
		AdminRows: 64, AdminLive: 4, AdminQPS: 20, BgInstallsPerS: 2, BgDiscoversPerS: 10,
		ModelNodes: 1000, ModelShards: 8, FanInFlows: 1000,
	}
	seconds := map[string]float64{"reinstall_storm": 0.3, "discover_storm": 0.3, "admin_mix": 1, "modeled_100k": 0.05}
	for i, w := range spec.Workloads {
		if w.Name != Names()[i] {
			t.Fatalf("BENCHMARK.json workload %d is %q, the harness runs %q", i, w.Name, Names()[i])
		}
		// The workloads share nothing, and nothing here is a measurement:
		// run them side by side to keep tier-1 short.
		t.Run(w.Name, func(t *testing.T) {
			t.Parallel()
			for _, trace := range []bool{false, true} {
				smokeOne(t, spec, w.Name, seconds[w.Name], trace, toy)
			}
		})
	}
}

func smokeOne(t *testing.T, spec *Spec, name string, seconds float64, trace bool, toy Sizes) {
	res, err := Run(spec, name, Options{Seed: 1, Seconds: seconds, Trace: trace, WorkDir: t.TempDir(), Sizes: toy})
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range res.Errors {
		t.Errorf("trace=%v: check failed: %s", trace, e)
	}
	if res.Attempted < 1 || res.Failed != 0 {
		t.Errorf("trace=%v: attempted %d, failed %d", trace, res.Attempted, res.Failed)
	}
	want := spec.metrics(trace)
	if len(res.Metrics) != len(want) {
		t.Fatalf("trace=%v: %d metrics, BENCHMARK.json lists %d", trace, len(res.Metrics), len(want))
	}
	for k, m := range res.Metrics {
		if m.Name != want[k].Name || m.Unit != want[k].Unit {
			t.Errorf("trace=%v: metric %d is %s [%s], want %s [%s]", trace, k, m.Name, m.Unit, want[k].Name, want[k].Unit)
		}
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			t.Errorf("trace=%v: %s = %v", trace, m.Name, m.Value)
		}
		if !trace && m.Value <= 0 {
			t.Errorf("end-to-end metric %s = %v, must be positive", m.Name, m.Value)
		}
	}
	if trace && len(res.Spans()) == 0 {
		t.Error("traced run recorded no spans")
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1, 2, 4, 8, 16, 32, 64, 128, 256, 512], n=4)
	q1, q2, q3 := quartiles([]float64{512, 1, 2, 4, 8, 16, 32, 64, 128, 256})
	if q1 != 3.5 || q2 != 24 || q3 != 160 {
		t.Errorf("quartiles = %v %v %v, want 3.5 24 160", q1, q2, q3)
	}
	q1, q2, q3 = quartiles([]float64{3, 1, 2})
	if q1 != 1 || q2 != 2 || q3 != 3 {
		t.Errorf("quartiles of three = %v %v %v, want 1 2 3", q1, q2, q3)
	}
}

func TestSelfTimeSubtractsMergedChildren(t *testing.T) {
	spans := []Span{
		{ID: 1, Layer: "core", Name: "install", StartNS: 0, EndNS: 100},
		{ID: 2, Parent: 1, Layer: "installer", Name: "packages", StartNS: 10, EndNS: 60},
		{ID: 3, Parent: 1, Layer: "installer", Name: "facts", StartNS: 50, EndNS: 80}, // overlaps its sibling
	}
	for _, st := range SelfTimes(spans) {
		if st.Layer == "core" && math.Abs(st.SelfMS-30e-6) > 1e-12 {
			t.Errorf("root self time = %v ms, want 30 ns", st.SelfMS)
		}
	}
}

func TestCompareVerdicts(t *testing.T) {
	spec := &Spec{
		EndToEnd: []MetricSpec{{Name: "op_ms_p50", Unit: "ms", Better: "lower", Bound: 0.10}},
	}
	spec.Workloads = append(spec.Workloads, struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}{Name: "w"})
	set := func(vals ...float64) []*File {
		var out []*File
		for _, v := range vals {
			out = append(out, &File{Workloads: []*Result{{Workload: "w", Metrics: []Metric{{Name: "op_ms_p50", Value: v}}}}})
		}
		return out
	}
	for _, tc := range []struct {
		a, b []*File
		want string
	}{
		{set(100, 101, 102), set(101, 102, 103), Same},
		{set(100, 101, 102), set(120, 121, 122), Worse},
		{set(100, 130, 160), set(110, 140, 170), Unresolved},
		{set(100, 130, 160), set(50, 60, 70), Same}, // every run of B beats every run of A
	} {
		if got := Compare(spec, tc.a, tc.b)[0].Verdict; got != tc.want {
			t.Errorf("verdict = %s, want %s", got, tc.want)
		}
	}
}
