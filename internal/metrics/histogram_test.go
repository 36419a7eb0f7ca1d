package metrics

import (
	"math"
	"strings"
	"sync"
	"testing"
)

func TestHistogramObserveAndExposition(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("fetch_seconds", "per-package fetch latency", []float64{0.1, 1, 10})
	for _, v := range []float64{0.05, 0.5, 0.5, 5, 50} {
		h.Observe(v)
	}
	if h.Count() != 5 {
		t.Fatalf("Count = %d, want 5", h.Count())
	}
	if got, want := h.Sum(), 56.05; math.Abs(got-want) > 1e-9 {
		t.Fatalf("Sum = %g, want %g", got, want)
	}

	var b strings.Builder
	if err := r.WriteText(&b); err != nil {
		t.Fatal(err)
	}
	text := b.String()
	for _, want := range []string{
		"# TYPE fetch_seconds histogram",
		`fetch_seconds_bucket{le="0.1"} 1`,
		`fetch_seconds_bucket{le="1"} 3`,
		`fetch_seconds_bucket{le="10"} 4`,
		`fetch_seconds_bucket{le="+Inf"} 5`,
		"fetch_seconds_count 5",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("exposition missing %q:\n%s", want, text)
		}
	}

	// The strict parser must accept its own output and type the family.
	s, err := ParseText(strings.NewReader(text))
	if err != nil {
		t.Fatalf("round-trip parse: %v", err)
	}
	if s.Types["fetch_seconds"] != TypeHistogram {
		t.Errorf("parsed type = %q, want histogram", s.Types["fetch_seconds"])
	}
	if v, _ := s.Value(`fetch_seconds_bucket{le="1"}`); v != 3 {
		t.Errorf(`le="1" bucket = %g, want 3`, v)
	}
	if v, _ := s.Value("fetch_seconds_count"); v != 5 {
		t.Errorf("count sample = %g, want 5", v)
	}
	if !s.Has("fetch_seconds") {
		t.Error("Has(fetch_seconds) = false")
	}
}

// TestHistogramMerge: observations tallied into two histograms and merged
// expose exactly as the same observations made into one.
func TestHistogramMerge(t *testing.T) {
	bounds := []float64{0.1, 1, 10}
	direct, shared, local := NewHistogram(bounds), NewHistogram(bounds), NewHistogram(bounds)
	for i, v := range []float64{0.05, 0.5, 0.5, 5, 50} {
		direct.Observe(v)
		if i%2 == 0 {
			shared.Observe(v)
		} else {
			local.Observe(v)
		}
	}
	shared.Merge(local)
	var want, got strings.Builder
	direct.writeTo(&want, "h")
	shared.writeTo(&got, "h")
	if got.String() != want.String() {
		t.Errorf("merged:\n%s\nobserved directly:\n%s", got.String(), want.String())
	}
}

func TestHistogramQuantile(t *testing.T) {
	h := NewHistogram([]float64{1, 2, 4, 8})
	if !math.IsNaN(h.Quantile(0.5)) {
		t.Error("empty histogram quantile should be NaN")
	}
	for i := 0; i < 100; i++ {
		h.Observe(float64(i%8) + 0.5) // uniform over (0,8)
	}
	if q := h.Quantile(0.5); q < 3 || q > 5 {
		t.Errorf("p50 = %g, want ~4", q)
	}
	if q := h.Quantile(0.99); q < 7 || q > 8 {
		t.Errorf("p99 = %g, want near 8", q)
	}
	h.Observe(1e9) // beyond the last bound clamps
	if q := h.Quantile(1); q != 8 {
		t.Errorf("p100 with overflow = %g, want clamp to 8", q)
	}
}

func TestHistogramBucketNormalization(t *testing.T) {
	h := NewHistogram([]float64{5, 1, 1, math.Inf(1), 3})
	if got, want := len(h.upper), 3; got != want {
		t.Fatalf("normalized bounds = %v, want 3 finite deduped", h.upper)
	}
	for i, want := range []float64{1, 3, 5} {
		if h.upper[i] != want {
			t.Errorf("bound[%d] = %g, want %g", i, h.upper[i], want)
		}
	}
	if NewHistogram(nil).upper == nil {
		t.Error("nil bounds should fall back to DefBuckets")
	}
}

func TestParseTextRejectsBrokenHistograms(t *testing.T) {
	cases := map[string]string{
		"missing count": "# TYPE h histogram\n" +
			`h_bucket{le="1"} 1` + "\n" + `h_bucket{le="+Inf"} 1` + "\nh_sum 1\n",
		"missing sum": "# TYPE h histogram\n" +
			`h_bucket{le="+Inf"} 1` + "\nh_count 1\n",
		"missing inf bucket": "# TYPE h histogram\n" +
			`h_bucket{le="1"} 1` + "\nh_sum 1\nh_count 1\n",
		"inf bucket != count": "# TYPE h histogram\n" +
			`h_bucket{le="+Inf"} 3` + "\nh_sum 1\nh_count 5\n",
		"decreasing buckets": "# TYPE h histogram\n" +
			`h_bucket{le="1"} 4` + "\n" + `h_bucket{le="2"} 2` + "\n" +
			`h_bucket{le="+Inf"} 5` + "\nh_sum 1\nh_count 5\n",
	}
	for name, text := range cases {
		if _, err := ParseText(strings.NewReader(text)); err == nil {
			t.Errorf("%s: parse accepted corrupt histogram:\n%s", name, text)
		}
	}
}

func TestHistogramConcurrentObserve(t *testing.T) {
	h := NewHistogram([]float64{1, 10})
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				h.Observe(float64(i % 20))
			}
		}()
	}
	wg.Wait()
	if h.Count() != 8000 {
		t.Fatalf("Count = %d, want 8000", h.Count())
	}
}
