// Package metrics is the cluster's observability registry: a
// dependency-free counter/gauge store with Prometheus text-format
// exposition. Every management layer — the cluster database's plan cache
// and WAL, the kickstart profile cache, the distribution server, the
// lifecycle bus, the installer, the supervisor — registers its counters
// here, and the frontend serves the whole registry at /metrics. One
// uniform surface replaces the bespoke JSON shapes each stats endpoint
// grew: a load test scrapes before and after and asserts on deltas, and a
// real Prometheus can scrape the same endpoint unmodified (the Brookhaven
// scalability paper's point that monitoring must scale with the cluster).
//
// Two registration styles cover every producer:
//
//   - Direct instruments (Counter, Gauge, CounterVec, GaugeVec) for code
//     paths that increment inline — the control plane's per-op request
//     counts, the audit log.
//   - Collector funcs (CounterFunc, GaugeFunc, …VecFunc) for subsystems
//     that already keep atomic counters: the func samples them at scrape
//     time, so migrating an existing counter costs one closure, not a
//     rewrite of its hot path.
package metrics

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"net/http"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// TypeCounter and TypeGauge are the exposition TYPE values.
const (
	TypeCounter = "counter"
	TypeGauge   = "gauge"
)

var nameRE = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*$`)

// value is a float64 cell updated with CAS so concurrent Add calls never
// lose increments. Counters and gauges share it; the family's type decides
// what operations the public wrapper exposes.
type value struct{ bits atomic.Uint64 }

func (v *value) load() float64 { return math.Float64frombits(v.bits.Load()) }
func (v *value) set(f float64) { v.bits.Store(math.Float64bits(f)) }
func (v *value) add(d float64) {
	for {
		old := v.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + d)
		if v.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Counter is a monotonically increasing value. Decrementing is a
// programmer error the type simply does not expose.
type Counter struct{ v value }

// Inc adds one.
func (c *Counter) Inc() { c.v.add(1) }

// Add increases the counter; negative deltas panic (a counter only goes up).
func (c *Counter) Add(d float64) {
	if d < 0 {
		panic("metrics: counter decremented")
	}
	c.v.add(d)
}

// Value returns the current count.
func (c *Counter) Value() float64 { return c.v.load() }

// Gauge is a value that can go up and down.
type Gauge struct{ v value }

// Set replaces the gauge's value.
func (g *Gauge) Set(f float64) { g.v.set(f) }

// Add adjusts the gauge by d (negative allowed).
func (g *Gauge) Add(d float64) { g.v.add(d) }

// Inc adds one.
func (g *Gauge) Inc() { g.v.add(1) }

// Dec subtracts one.
func (g *Gauge) Dec() { g.v.add(-1) }

// Value returns the current value.
func (g *Gauge) Value() float64 { return g.v.load() }

// Sample is one exposed time-series point: the label values (matching the
// family's label names positionally; nil for a scalar family) and the
// value at scrape time. Collector funcs return them.
type Sample struct {
	Labels []string
	Value  float64
}

// child is one labeled instrument inside a vec family.
type child struct {
	labels []string
	c      *Counter
	g      *Gauge
}

func (ch *child) value() float64 {
	if ch.c != nil {
		return ch.c.Value()
	}
	return ch.g.Value()
}

// family is one named metric: its metadata, and either direct instruments
// (scalar or labeled children) or a collector func.
type family struct {
	name   string
	help   string
	typ    string
	labels []string

	mu       sync.Mutex
	scalarC  *Counter
	scalarG  *Gauge
	children map[string]*child
	collect  func() []Sample
	hist     *Histogram
}

// samples snapshots the family's series, sorted by label key for stable
// output.
func (f *family) samples() []Sample {
	if f.collect != nil {
		return f.collect()
	}
	if f.scalarC != nil {
		return []Sample{{Value: f.scalarC.Value()}}
	}
	if f.scalarG != nil {
		return []Sample{{Value: f.scalarG.Value()}}
	}
	f.mu.Lock()
	keys := make([]string, 0, len(f.children))
	for k := range f.children {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	out := make([]Sample, 0, len(keys))
	for _, k := range keys {
		ch := f.children[k]
		out = append(out, Sample{Labels: ch.labels, Value: ch.value()})
	}
	f.mu.Unlock()
	return out
}

// Registry holds a set of metric families. A cluster owns exactly one; the
// zero value is not usable — call NewRegistry.
type Registry struct {
	mu       sync.Mutex
	families map[string]*family
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family)}
}

// register installs a family, panicking on an invalid or duplicate name —
// both are wiring bugs a test trips immediately, not runtime conditions.
func (r *Registry) register(f *family) *family {
	if !nameRE.MatchString(f.name) {
		panic(fmt.Sprintf("metrics: invalid metric name %q", f.name))
	}
	for _, l := range f.labels {
		if !nameRE.MatchString(l) {
			panic(fmt.Sprintf("metrics: invalid label name %q on %s", l, f.name))
		}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.families[f.name]; dup {
		panic(fmt.Sprintf("metrics: duplicate registration of %s", f.name))
	}
	r.families[f.name] = f
	return f
}

// Counter registers and returns a scalar counter.
func (r *Registry) Counter(name, help string) *Counter {
	c := &Counter{}
	r.register(&family{name: name, help: help, typ: TypeCounter, scalarC: c})
	return c
}

// Gauge registers and returns a scalar gauge.
func (r *Registry) Gauge(name, help string) *Gauge {
	g := &Gauge{}
	r.register(&family{name: name, help: help, typ: TypeGauge, scalarG: g})
	return g
}

// CounterVec is a counter family with labels; With materializes children.
type CounterVec struct{ f *family }

// CounterVec registers a labeled counter family.
func (r *Registry) CounterVec(name, help string, labelNames ...string) *CounterVec {
	f := r.register(&family{name: name, help: help, typ: TypeCounter,
		labels: labelNames, children: make(map[string]*child)})
	return &CounterVec{f: f}
}

// With returns the counter for the given label values, creating it on
// first use. The number of values must match the registered label names.
func (v *CounterVec) With(values ...string) *Counter {
	ch := v.f.child(values)
	return ch.c
}

// GaugeVec is a gauge family with labels.
type GaugeVec struct{ f *family }

// GaugeVec registers a labeled gauge family.
func (r *Registry) GaugeVec(name, help string, labelNames ...string) *GaugeVec {
	f := r.register(&family{name: name, help: help, typ: TypeGauge,
		labels: labelNames, children: make(map[string]*child)})
	return &GaugeVec{f: f}
}

// With returns the gauge for the given label values, creating it on first
// use.
func (v *GaugeVec) With(values ...string) *Gauge {
	ch := v.f.child(values)
	return ch.g
}

func (f *family) child(values []string) *child {
	if len(values) != len(f.labels) {
		panic(fmt.Sprintf("metrics: %s wants %d label values, got %d", f.name, len(f.labels), len(values)))
	}
	key := strings.Join(values, "\x00")
	f.mu.Lock()
	defer f.mu.Unlock()
	ch, ok := f.children[key]
	if !ok {
		ch = &child{labels: append([]string(nil), values...)}
		if f.typ == TypeCounter {
			ch.c = &Counter{}
		} else {
			ch.g = &Gauge{}
		}
		f.children[key] = ch
	}
	return ch
}

// CounterFunc registers a counter sampled by fn at scrape time — the
// migration path for subsystems that already keep an atomic counter.
func (r *Registry) CounterFunc(name, help string, fn func() float64) {
	r.register(&family{name: name, help: help, typ: TypeCounter,
		collect: func() []Sample { return []Sample{{Value: fn()}} }})
}

// GaugeFunc registers a gauge sampled by fn at scrape time.
func (r *Registry) GaugeFunc(name, help string, fn func() float64) {
	r.register(&family{name: name, help: help, typ: TypeGauge,
		collect: func() []Sample { return []Sample{{Value: fn()}} }})
}

// CounterVecFunc registers a labeled counter family whose full series set
// is produced by fn at scrape time.
func (r *Registry) CounterVecFunc(name, help string, labelNames []string, fn func() []Sample) {
	r.register(&family{name: name, help: help, typ: TypeCounter, labels: labelNames, collect: fn})
}

// GaugeVecFunc registers a labeled gauge family whose full series set is
// produced by fn at scrape time.
func (r *Registry) GaugeVecFunc(name, help string, labelNames []string, fn func() []Sample) {
	r.register(&family{name: name, help: help, typ: TypeGauge, labels: labelNames, collect: fn})
}

// formatValue renders a float the way the exposition format expects:
// integers without an exponent (counters are counts; "1e+06" helps nobody
// grepping a scrape), specials as +Inf/-Inf/NaN.
func formatValue(f float64) string {
	switch {
	case math.IsInf(f, 1):
		return "+Inf"
	case math.IsInf(f, -1):
		return "-Inf"
	case math.IsNaN(f):
		return "NaN"
	case f == math.Trunc(f) && math.Abs(f) < 1<<53:
		return strconv.FormatInt(int64(f), 10)
	}
	return strconv.FormatFloat(f, 'g', -1, 64)
}

var labelEscaper = strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)
var helpEscaper = strings.NewReplacer(`\`, `\\`, "\n", `\n`)

// WriteText renders the registry in the Prometheus text exposition format
// (version 0.0.4): families sorted by name, each with HELP and TYPE lines
// followed by its samples.
func (r *Registry) WriteText(w io.Writer) error {
	r.mu.Lock()
	names := make([]string, 0, len(r.families))
	for n := range r.families {
		names = append(names, n)
	}
	fams := make([]*family, 0, len(names))
	sort.Strings(names)
	for _, n := range names {
		fams = append(fams, r.families[n])
	}
	r.mu.Unlock()

	var b strings.Builder
	for _, f := range fams {
		fmt.Fprintf(&b, "# HELP %s %s\n", f.name, helpEscaper.Replace(f.help))
		fmt.Fprintf(&b, "# TYPE %s %s\n", f.name, f.typ)
		if f.hist != nil {
			f.hist.writeTo(&b, f.name)
			continue
		}
		for _, s := range f.samples() {
			b.WriteString(f.name)
			if len(s.Labels) > 0 {
				b.WriteByte('{')
				for i, lv := range s.Labels {
					if i > 0 {
						b.WriteByte(',')
					}
					ln := ""
					if i < len(f.labels) {
						ln = f.labels[i]
					}
					fmt.Fprintf(&b, `%s=%q`, ln, labelEscaper.Replace(lv))
				}
				b.WriteByte('}')
			}
			b.WriteByte(' ')
			b.WriteString(formatValue(s.Value))
			b.WriteByte('\n')
		}
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// Handler serves the registry as a /metrics endpoint.
func (r *Registry) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		r.WriteText(w)
	})
}

// Families lists the registered family names, sorted — the CI smoke's
// "every registered counter is present" ground truth.
func (r *Registry) Families() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]string, 0, len(r.families))
	for n := range r.families {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// Scrape is a parsed exposition payload: every sample keyed exactly as
// rendered (name or name{label="value",...}), plus the family metadata from
// the TYPE lines — so a family that currently exposes zero series (an empty
// vec) is still visibly *registered*.
type Scrape struct {
	Values map[string]float64
	Types  map[string]string
}

// Has reports whether the family was present in the scrape (via its TYPE
// line or any sample).
func (s Scrape) Has(familyName string) bool {
	if _, ok := s.Types[familyName]; ok {
		return true
	}
	_, ok := s.Values[familyName]
	return ok
}

// Value returns the sample with the exact key, and whether it existed.
func (s Scrape) Value(key string) (float64, bool) {
	v, ok := s.Values[key]
	return v, ok
}

// Sum totals every sample belonging to the family — the scalar series plus
// all labeled children. Asserting on deltas of Sum is how load tests read
// a vec without caring about label sets.
func (s Scrape) Sum(familyName string) float64 {
	var total float64
	for k, v := range s.Values {
		if k == familyName || strings.HasPrefix(k, familyName+"{") {
			total += v
		}
	}
	return total
}

// ParseText parses a text-format exposition payload — the other half of
// WriteText, used by cluster-health -metrics, the CI smoke, and the
// round-trip tests. It is strict: any line that is neither a comment nor a
// well-formed sample is an error, so a corrupted exposition can't silently
// pass a smoke test.
func ParseText(rd io.Reader) (Scrape, error) {
	s := Scrape{Values: make(map[string]float64), Types: make(map[string]string)}
	sc := bufio.NewScanner(rd)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "#") {
			fields := strings.Fields(line)
			// "# TYPE name counter" registers the family.
			if len(fields) >= 4 && fields[1] == "TYPE" {
				s.Types[fields[2]] = fields[3]
			}
			continue
		}
		key, val, err := parseSample(line)
		if err != nil {
			return Scrape{}, fmt.Errorf("metrics: line %d: %w", lineNo, err)
		}
		s.Values[key] = val
	}
	if err := sc.Err(); err != nil {
		return Scrape{}, fmt.Errorf("metrics: reading exposition: %w", err)
	}
	if err := validateHistograms(s); err != nil {
		return Scrape{}, err
	}
	return s, nil
}

// parseSample splits `name{labels} value` (labels optional) into a sample
// key and its float value, validating both halves.
func parseSample(line string) (string, float64, error) {
	var key, rest string
	if i := strings.IndexByte(line, '{'); i >= 0 {
		end := strings.LastIndexByte(line, '}')
		if end < i {
			return "", 0, fmt.Errorf("unterminated label set in %q", line)
		}
		if !nameRE.MatchString(line[:i]) {
			return "", 0, fmt.Errorf("invalid metric name in %q", line)
		}
		if err := checkLabels(line[i+1 : end]); err != nil {
			return "", 0, fmt.Errorf("%w in %q", err, line)
		}
		key, rest = line[:end+1], strings.TrimSpace(line[end+1:])
	} else {
		fields := strings.Fields(line)
		if len(fields) != 2 {
			return "", 0, fmt.Errorf("malformed sample line %q", line)
		}
		if !nameRE.MatchString(fields[0]) {
			return "", 0, fmt.Errorf("invalid metric name in %q", line)
		}
		key, rest = fields[0], fields[1]
	}
	val, err := parseValue(rest)
	if err != nil {
		return "", 0, fmt.Errorf("bad value %q in %q", rest, line)
	}
	return key, val, nil
}

// checkLabels validates a rendered label body: name="value" pairs,
// comma-separated, values quoted with the exposition escapes.
func checkLabels(body string) error {
	for len(body) > 0 {
		eq := strings.IndexByte(body, '=')
		if eq <= 0 || !nameRE.MatchString(body[:eq]) {
			return fmt.Errorf("malformed label name")
		}
		rest := body[eq+1:]
		if len(rest) == 0 || rest[0] != '"' {
			return fmt.Errorf("unquoted label value")
		}
		// Walk the quoted value honoring backslash escapes.
		i := 1
		for i < len(rest) {
			if rest[i] == '\\' {
				i += 2
				continue
			}
			if rest[i] == '"' {
				break
			}
			i++
		}
		if i >= len(rest) {
			return fmt.Errorf("unterminated label value")
		}
		body = strings.TrimPrefix(rest[i+1:], ",")
	}
	return nil
}

func parseValue(s string) (float64, error) {
	switch s {
	case "+Inf":
		return math.Inf(1), nil
	case "-Inf":
		return math.Inf(-1), nil
	case "NaN":
		return math.NaN(), nil
	}
	return strconv.ParseFloat(s, 64)
}
