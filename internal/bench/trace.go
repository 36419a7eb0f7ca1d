package bench

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// Span is one interval at a layer boundary the harness can see from outside
// the program: a call into a public function, or the gap between two
// lifecycle events of one install. Spans of one operation share Trace;
// Parent is the span that caused this one (0 for a root).
type Span struct {
	ID      uint64 `json:"id"`
	Parent  uint64 `json:"parent"`
	Trace   uint64 `json:"trace"`
	Layer   string `json:"layer"`
	Name    string `json:"name"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
}

// Recorder keeps spans in memory until the run ends. A nil *Recorder
// records nothing, which is how untraced runs (and the untraced slices of
// a traced run) skip the work without a branch at every call site.
type Recorder struct {
	mu    sync.Mutex
	epoch time.Time
	spans []Span
	ids   uint64
}

func NewRecorder() *Recorder { return &Recorder{epoch: time.Now()} }

// NewTrace allocates the identifier one operation's spans share.
func (r *Recorder) NewTrace() uint64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.ids++
	return r.ids
}

// Add records one finished span and returns its id, for use as a Parent.
func (r *Recorder) Add(trace, parent uint64, layer, name string, start, end time.Time) uint64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.ids++
	r.spans = append(r.spans, Span{
		ID: r.ids, Parent: parent, Trace: trace, Layer: layer, Name: name,
		StartNS: start.Sub(r.epoch).Nanoseconds(), EndNS: end.Sub(r.epoch).Nanoseconds(),
	})
	return r.ids
}

// Spans returns a copy of everything recorded so far.
func (r *Recorder) Spans() []Span {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]Span(nil), r.spans...)
}

// SelfTime is one (layer, name) pair's aggregate over a trace: how many
// spans, their total duration, and the part of it no child span covers.
type SelfTime struct {
	Layer   string  `json:"layer"`
	Name    string  `json:"name"`
	Count   int     `json:"count"`
	TotalMS float64 `json:"total_ms"`
	SelfMS  float64 `json:"self_ms"`
}

// SelfTimes aggregates spans by (layer, name). A span's self time is its
// duration minus the part of that interval its children cover; overlapping
// children are merged first so concurrent children are not subtracted twice.
func SelfTimes(spans []Span) []SelfTime {
	children := make(map[uint64][]Span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	type key struct{ layer, name string }
	agg := make(map[key]*SelfTime)
	for _, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].StartNS < kids[j].StartNS })
		var covered, edge int64 = 0, s.StartNS
		for _, k := range kids {
			lo, hi := max(k.StartNS, edge), min(k.EndNS, s.EndNS)
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		k := key{s.Layer, s.Name}
		a := agg[k]
		if a == nil {
			a = &SelfTime{Layer: s.Layer, Name: s.Name}
			agg[k] = a
		}
		a.Count++
		a.TotalMS += float64(s.EndNS-s.StartNS) / 1e6
		a.SelfMS += float64(s.EndNS-s.StartNS-covered) / 1e6
	}
	out := make([]SelfTime, 0, len(agg))
	for _, a := range agg {
		out = append(out, *a)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Layer != out[j].Layer {
			return out[i].Layer < out[j].Layer
		}
		return out[i].Name < out[j].Name
	})
	return out
}

// traceFile is what -out/trace-<workload>.json holds.
type traceFile struct {
	Workload string     `json:"workload"`
	Seed     int64      `json:"seed"`
	Self     []SelfTime `json:"self_time"`
	Spans    []Span     `json:"spans"`
}

// WriteTrace writes the run's spans and their self-time summary.
func WriteTrace(path, workload string, seed int64, spans []Span) error {
	data, err := json.Marshal(traceFile{Workload: workload, Seed: seed, Self: SelfTimes(spans), Spans: spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
