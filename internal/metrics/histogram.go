package metrics

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync/atomic"
)

// TypeHistogram is the exposition TYPE value for histogram families.
const TypeHistogram = "histogram"

// DefBuckets covers the latency range the cluster cares about: from a
// sub-millisecond cached kickstart fetch to a multi-hour whole-fleet
// reinstall, in seconds.
var DefBuckets = []float64{
	0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1, 5, 15, 60, 300, 1800, 7200,
}

// Histogram is a fixed-bucket distribution: observations land in the first
// bucket whose upper bound is >= the value, with an implicit +Inf bucket
// catching the rest. Exposition follows the Prometheus histogram contract —
// cumulative `_bucket{le="..."}` series plus `_sum` and `_count`.
//
// Like Counter and Gauge it is safe for concurrent use and can exist
// unregistered (the installer's Stats keeps histograms that only reach a
// registry when a cluster wires them up).
type Histogram struct {
	upper   []float64 // ascending bucket upper bounds, +Inf excluded
	buckets []atomic.Uint64
	count   atomic.Uint64
	sum     value
}

// NewHistogram creates a histogram with the given bucket upper bounds. The
// bounds are copied, sorted, and deduplicated; a trailing +Inf is dropped
// (it is always implicit). Nil or empty buckets fall back to DefBuckets.
func NewHistogram(bounds []float64) *Histogram {
	if len(bounds) == 0 {
		bounds = DefBuckets
	}
	upper := append([]float64(nil), bounds...)
	sort.Float64s(upper)
	dedup := upper[:0]
	for _, b := range upper {
		if math.IsNaN(b) {
			panic("metrics: NaN histogram bucket bound")
		}
		if math.IsInf(b, 1) {
			continue
		}
		if len(dedup) > 0 && dedup[len(dedup)-1] == b {
			continue
		}
		dedup = append(dedup, b)
	}
	return &Histogram{upper: dedup, buckets: make([]atomic.Uint64, len(dedup)+1)}
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	i := sort.SearchFloat64s(h.upper, v)
	h.buckets[i].Add(1)
	h.count.Add(1)
	h.sum.add(v)
}

// Merge adds o's observations to h, which must have o's bounds: a goroutine
// may tally into a histogram of its own and fold it into a shared one once.
func (h *Histogram) Merge(o *Histogram) {
	for i := range o.buckets {
		if n := o.buckets[i].Load(); n > 0 {
			h.buckets[i].Add(n)
		}
	}
	h.count.Add(o.count.Load())
	h.sum.add(o.sum.load())
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 { return h.count.Load() }

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() float64 { return h.sum.load() }

// Quantile estimates the q-quantile (0 < q <= 1) by linear interpolation
// inside the bucket that spans it, the way PromQL's histogram_quantile
// does. It returns NaN with no observations; values beyond the last finite
// bound clamp to that bound.
func (h *Histogram) Quantile(q float64) float64 {
	total := h.count.Load()
	if total == 0 {
		return math.NaN()
	}
	rank := q * float64(total)
	var cum uint64
	for i, ub := range h.upper {
		prev := cum
		cum += h.buckets[i].Load()
		if float64(cum) >= rank {
			lb := 0.0
			if i > 0 {
				lb = h.upper[i-1]
			}
			width := float64(h.buckets[i].Load())
			if width == 0 {
				return ub
			}
			return lb + (ub-lb)*(rank-float64(prev))/width
		}
	}
	if n := len(h.upper); n > 0 {
		return h.upper[n-1]
	}
	return math.NaN()
}

// writeTo renders the histogram's exposition series under the family name.
func (h *Histogram) writeTo(b *strings.Builder, name string) {
	var cum uint64
	for i, ub := range h.upper {
		cum += h.buckets[i].Load()
		fmt.Fprintf(b, "%s_bucket{le=%q} %d\n", name, formatValue(ub), cum)
	}
	cum += h.buckets[len(h.upper)].Load()
	fmt.Fprintf(b, "%s_bucket{le=\"+Inf\"} %d\n", name, cum)
	fmt.Fprintf(b, "%s_sum %s\n", name, formatValue(h.sum.load()))
	fmt.Fprintf(b, "%s_count %d\n", name, cum)
}

// Histogram registers and returns a histogram family. Pass nil bounds for
// DefBuckets.
func (r *Registry) Histogram(name, help string, bounds []float64) *Histogram {
	h := NewHistogram(bounds)
	r.RegisterHistogram(name, help, h)
	return h
}

// RegisterHistogram installs an existing histogram under the given family
// name — the collector-func analogue for subsystems that already own their
// instrument.
func (r *Registry) RegisterHistogram(name, help string, h *Histogram) {
	r.register(&family{name: name, help: help, typ: TypeHistogram, hist: h})
}

// validateHistograms enforces the histogram exposition contract on a parsed
// scrape: every family declared `# TYPE x histogram` must carry x_sum,
// x_count, an le="+Inf" bucket equal to x_count, and cumulative bucket
// counts that never decrease as le rises. A scrape violating any of these
// was corrupted (or produced by a broken exporter) and must not pass a
// smoke test.
func validateHistograms(s Scrape) error {
	for name, typ := range s.Types {
		if typ != TypeHistogram {
			continue
		}
		count, ok := s.Values[name+"_count"]
		if !ok {
			return fmt.Errorf("metrics: histogram %s missing _count", name)
		}
		if _, ok := s.Values[name+"_sum"]; !ok {
			return fmt.Errorf("metrics: histogram %s missing _sum", name)
		}
		type bkt struct {
			le  float64
			cum float64
		}
		var bkts []bkt
		sawInf := false
		prefix := name + `_bucket{le="`
		for k, v := range s.Values {
			if !strings.HasPrefix(k, prefix) || !strings.HasSuffix(k, `"}`) {
				continue
			}
			leStr := k[len(prefix) : len(k)-2]
			le, err := parseValue(leStr)
			if err != nil {
				return fmt.Errorf("metrics: histogram %s: bad le bound %q", name, leStr)
			}
			if math.IsInf(le, 1) {
				sawInf = true
				if v != count {
					return fmt.Errorf("metrics: histogram %s: +Inf bucket %g != count %g", name, v, count)
				}
			}
			bkts = append(bkts, bkt{le: le, cum: v})
		}
		if !sawInf {
			return fmt.Errorf("metrics: histogram %s missing le=\"+Inf\" bucket", name)
		}
		sort.Slice(bkts, func(i, j int) bool { return bkts[i].le < bkts[j].le })
		for i := 1; i < len(bkts); i++ {
			if bkts[i].cum < bkts[i-1].cum {
				return fmt.Errorf("metrics: histogram %s: bucket counts decrease at le=%g", name, bkts[i].le)
			}
		}
	}
	return nil
}
