// Package bench is the repository's one performance harness: four named
// workloads against a real loopback frontend (core.New) and the modeled
// plane, measured from outside the layers — timed calls into public
// functions, lifecycle-bus timestamps, /metrics deltas — with every output
// checked. README.md in this directory says what each workload is for and
// which end-to-end number each per-layer number should move.
package bench

import (
	"fmt"
	"math"
	"math/rand"
	"os"
	"runtime"
	"sort"
	"sync"
	"time"
)

// Sizes fixes how much work each workload does. Fleet sizes and rates are
// part of a workload's identity — a number measured at another size is a
// number for another workload — so the command line exposes none of them;
// only the smoke test substitutes toy values.
type Sizes struct {
	Setups int // how often set-up is repeated; setup_s is the median

	StormNodes int // reinstall_storm fleet
	RackSize   int // nodes integrated per insert-ethers session

	DiscoverSessions int     // insert-ethers sessions per discover_storm round
	SessionSize      int     // new MACs per session
	RoundSeconds     float64 // --seconds buys seconds/RoundSeconds rounds (at least one)

	AdminRows       int     // discovered rows under the admin_mix queries
	AdminLive       int     // live nodes the background reinstalls cycle over
	AdminQPS        float64 // open-loop foreground query rate
	BgInstallsPerS  float64
	BgDiscoversPerS float64

	ModelNodes  int // modeled_100k fleet
	ModelShards int
	FanInFlows  int // bare simnet fan-in
}

// FullSizes are the sizes every recorded number is measured at. They were
// chosen on a 2-core host so that each timed section is CPU-bound or paced
// well inside 20 s; see README.md.
func FullSizes() Sizes {
	return Sizes{
		Setups:     3,
		StormNodes: 256, RackSize: 32,
		DiscoverSessions: 16, SessionSize: 256, RoundSeconds: 10,
		AdminRows: 2048, AdminLive: 32, AdminQPS: 100, BgInstallsPerS: 5, BgDiscoversPerS: 10,
		ModelNodes: 100000, ModelShards: 8, FanInFlows: 100000,
	}
}

// Options are one run's inputs.
type Options struct {
	Seed    int64
	Seconds float64 // length of the timed section
	Trace   bool    // span recorder on: per-layer metrics instead of end-to-end
	Clients int     // C, the load-generating goroutines/connections; 0 = DefaultClients()
	WorkDir string  // where durable databases live for the run; must exist
	Sizes   Sizes   // zero value = FullSizes()
}

// DefaultClients is C = min(nproc, 4): more clients than cores only
// measures the scheduler.
func DefaultClients() int { return min(runtime.NumCPU(), 4) }

// Metric is one reported number. N is how many samples it summarises.
type Metric struct {
	Name  string  `json:"name"`
	Unit  string  `json:"unit"`
	Value float64 `json:"value"`
	N     int     `json:"n"`
}

// Result is one workload run in the result file's fixed schema.
type Result struct {
	Workload  string         `json:"workload"`
	Trace     bool           `json:"trace"`
	Sizes     map[string]int `json:"sizes"`
	WallS     float64        `json:"wall_s"`
	TimedS    float64        `json:"timed_s"`
	Attempted int            `json:"attempted"`
	Failed    int            `json:"failed"`
	Correct   bool           `json:"correct"`
	Errors    []string       `json:"errors,omitempty"`
	Metrics   []Metric       `json:"metrics"`

	spans []Span
}

// Spans returns what the recorder held when the run ended (traced runs).
func (r *Result) Spans() []Span { return r.spans }

// workload pairs a name BENCHMARK.json lists with the function that runs it.
type workload struct {
	name string
	run  func(*run) error
}

var workloads = []workload{
	{"reinstall_storm", reinstallStorm},
	{"discover_storm", discoverStorm},
	{"admin_mix", adminMix},
	{"modeled_100k", modeled100k},
}

// Names lists the workloads in the order they run.
func Names() []string {
	out := make([]string, len(workloads))
	for i, w := range workloads {
		out[i] = w.name
	}
	return out
}

// run is the state a workload's phases share.
type run struct {
	opt   Options
	rng   *rand.Rand
	rec   *Recorder // nil unless opt.Trace
	sizes map[string]int

	setupS []float64 // one sample per set-up
	timedS float64   // wall and CPU accumulated over timed sections
	cpuS   float64
	rates  []float64 // headline operations per second, one per round

	mu        sync.Mutex
	ops       []float64       // headline operation latencies, ms
	sliceOps  map[int]int     // operations started, and CPU seconds spent,
	sliceCPU  map[int]float64 // in each slice of a traced run (see run.slice)
	attempted int
	failed    int
	errs      []string
	metrics   map[string]Metric

	allocMB, gcPauseMS     float64 // over timed sections
	peakHeapMB, goroutines float64 // sampled during them (traced runs)
}

// errorf records a failed output check. The run goes on so that one report
// lists every check that failed, and ends with correct=false.
func (r *run) errorf(format string, args ...interface{}) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.errs) < 20 {
		r.errs = append(r.errs, fmt.Sprintf(format, args...))
	}
}

// attempt counts one operation of any kind; ok=false counts it as failed.
func (r *run) attempt(ok bool) {
	r.mu.Lock()
	r.attempted++
	if !ok {
		r.failed++
	}
	r.mu.Unlock()
}

// op records one successful headline operation's latency. slice is the
// part of the run it started in (see run.slice).
func (r *run) op(ms float64, slice int) {
	r.mu.Lock()
	r.ops = append(r.ops, ms)
	r.sliceOps[slice]++
	r.mu.Unlock()
}

// set records one metric's value; n is how many samples it summarises.
func (r *run) set(name string, value float64, n int) {
	r.mu.Lock()
	r.metrics[name] = Metric{Name: name, Value: value, N: n}
	r.mu.Unlock()
}

// A traced run is cut into slices, and the span recorder is on in the
// middle two of every four: off-on-on-off, repeating. A drift across the run
// (a growing table, a warming cache) then falls equally on both sides of the
// trace.overhead_pct comparison. timeSlices is how many slices a timed
// section of opt.Seconds is cut into.
const timeSlices = 8

func recorderOn(slice int) bool { return slice%4 == 1 || slice%4 == 2 }

// slice returns the recorder for the i-th slice: nil when it is off.
func (r *run) slice(i int) *Recorder {
	if recorderOn(i) {
		return r.rec
	}
	return nil
}

// sliceAt maps a moment of a timed section to its slice.
func (r *run) sliceAt(elapsed time.Duration) int {
	return int(timeSlices * elapsed.Seconds() / r.opt.Seconds)
}

// watchSlices records the CPU time the process spends in each of the
// timeSlices slices of a timed section that began at start, until the
// returned stop function is called. Untraced runs get a no-op.
func (r *run) watchSlices(start time.Time) (stop func()) {
	if !r.opt.Trace {
		return func() {}
	}
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		prev := cpuSeconds()
		for i := 0; i < timeSlices; i++ {
			boundary := start.Add(time.Duration(float64(i+1) / timeSlices * r.opt.Seconds * float64(time.Second)))
			select {
			case <-time.After(time.Until(boundary)):
			case <-done:
				return
			}
			now := cpuSeconds()
			r.addSliceCPU(i, now-prev)
			prev = now
		}
	}()
	return func() { close(done); wg.Wait() }
}

func (r *run) addSliceCPU(slice int, cpuS float64) {
	r.mu.Lock()
	r.sliceCPU[slice] += cpuS
	r.mu.Unlock()
}

// traceOverhead is what the recorder costs: CPU per headline operation over
// the slices it was on in, against the slices it was off in, as a
// percentage. CPU per operation rather than latency, because the recorder
// costs cycles, not waiting, and a latency percentile over a few seconds is
// far noisier than the effect. Only slices whose CPU was sampled count.
func (r *run) traceOverhead() (pct float64, n int) {
	var cpu [2]float64
	var ops [2]int
	for slice, s := range r.sliceCPU {
		on := 0
		if recorderOn(slice) {
			on = 1
		}
		cpu[on] += s
		ops[on] += r.sliceOps[slice]
	}
	if ops[0] == 0 || ops[1] == 0 {
		return 0, 0
	}
	off := cpu[0] / float64(ops[0])
	return (cpu[1]/float64(ops[1]) - off) / off * 100, ops[1]
}

// setups builds the system under test n times, discarding all but the last,
// and records each build's duration: setup_s is their median, so one slow
// build cannot move it.
func (r *run) setups(n int, build func() error, discard func()) error {
	for i := 0; i < n; i++ {
		t0 := time.Now()
		if err := build(); err != nil {
			return err
		}
		r.setupS = append(r.setupS, time.Since(t0).Seconds())
		if i < n-1 {
			discard()
			runtime.GC()
		}
	}
	return nil
}

// timed runs one timed section, accumulating its wall time, CPU time and
// allocation; traced runs also get its GC pauses and process samples.
func (r *run) timed(section func()) {
	var m0, m1 runtime.MemStats
	stop := func() {}
	if r.opt.Trace {
		stop = r.sampleProcess()
	}
	runtime.ReadMemStats(&m0)
	cpu0, t0 := cpuSeconds(), time.Now()
	section()
	r.timedS += time.Since(t0).Seconds()
	r.cpuS += cpuSeconds() - cpu0
	runtime.ReadMemStats(&m1)
	stop()
	r.allocMB += float64(m1.TotalAlloc-m0.TotalAlloc) / (1 << 20)
	r.gcPauseMS += float64(m1.PauseTotalNs-m0.PauseTotalNs) / 1e6
}

// sampleProcess polls heap and goroutine counts until the returned stop
// function is called.
func (r *run) sampleProcess() (stop func()) {
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		tick := time.NewTicker(250 * time.Millisecond)
		defer tick.Stop()
		var m runtime.MemStats
		for {
			runtime.ReadMemStats(&m)
			r.peakHeapMB = math.Max(r.peakHeapMB, float64(m.HeapInuse)/(1<<20))
			r.goroutines = math.Max(r.goroutines, float64(runtime.NumGoroutine()))
			select {
			case <-tick.C:
			case <-done:
				return
			}
		}
	}()
	return func() { close(done); wg.Wait() }
}

// Run executes one workload and reports the metrics spec lists for the
// mode: every end-to-end metric untraced, every per-layer metric traced.
func Run(spec *Spec, name string, opt Options) (*Result, error) {
	var w *workload
	for i := range workloads {
		if workloads[i].name == name {
			w = &workloads[i]
		}
	}
	if w == nil {
		return nil, fmt.Errorf("bench: unknown workload %q (have %v)", name, Names())
	}
	if opt.Seconds <= 0 {
		return nil, fmt.Errorf("bench: -seconds must be positive")
	}
	if opt.Clients <= 0 {
		opt.Clients = DefaultClients()
	}
	if opt.Sizes == (Sizes{}) {
		opt.Sizes = FullSizes()
	}
	dir, err := os.MkdirTemp(opt.WorkDir, name+"-")
	if err != nil {
		return nil, fmt.Errorf("bench: creating work directory: %w", err)
	}
	defer os.RemoveAll(dir)
	opt.WorkDir = dir

	r := &run{
		opt:     opt,
		rng:     rand.New(rand.NewSource(opt.Seed)),
		sizes:   map[string]int{},
		metrics: map[string]Metric{}, sliceOps: map[int]int{}, sliceCPU: map[int]float64{},
	}
	if opt.Trace {
		r.rec = NewRecorder()
	}
	t0 := time.Now()
	if err := w.run(r); err != nil {
		// The system under test could not be built or driven at all; there
		// is nothing to report a metric about.
		return nil, fmt.Errorf("bench: %s: %w", name, err)
	}
	res := &Result{
		Workload: name, Trace: opt.Trace, Sizes: r.sizes,
		WallS: time.Since(t0).Seconds(), TimedS: r.timedS,
		Attempted: r.attempted, Failed: r.failed,
		spans: r.rec.Spans(),
	}
	if len(r.ops) == 0 {
		r.errorf("no operation completed")
	}
	if r.failed > 0 {
		r.errorf("%d of %d operations failed", r.failed, r.attempted)
	}

	// End-to-end: what is gated. Wall-clock throughput and latency are not
	// among them — see README.md, "Why the gated metrics are CPU and memory"
	// — and are reported per layer under wall.* instead.
	nOps := float64(max(len(r.ops), 1))
	if opt.Trace {
		r.set("wall.ops_per_s", median(r.rates), len(r.rates))
		r.set("wall.op_ms_p50", percentile(r.ops, 50), len(r.ops))
		r.set("wall.op_ms_p95", percentile(r.ops, 95), len(r.ops))
		r.set("wall.op_ms_p99", percentile(r.ops, 99), len(r.ops))
		r.set("process.gc_pause_ms", r.gcPauseMS, 1)
		r.set("process.peak_heap_mb", r.peakHeapMB, 1)
		r.set("process.goroutines_peak", r.goroutines, 1)
		pct, n := r.traceOverhead()
		r.set("trace.overhead_pct", pct, n)
	} else {
		r.set("setup_s", median(r.setupS), len(r.setupS))
		r.set("cpu_ms_per_op", r.cpuS*1000/nOps, len(r.ops))
		r.set("alloc_mb_per_op", r.allocMB/nOps, len(r.ops))
		r.set("peak_rss_mb", peakRSSMB(), 1)
	}

	// Emit exactly what the spec lists, in its order. A metric the workload
	// set but the spec does not know is harness rot, not a result.
	listed := map[string]bool{}
	for _, ms := range spec.metrics(opt.Trace) {
		listed[ms.Name] = true
		m := r.metrics[ms.Name]
		m.Name, m.Unit = ms.Name, ms.Unit
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			r.errorf("metric %s is not finite", ms.Name)
			m.Value = 0
		}
		res.Metrics = append(res.Metrics, m)
	}
	var unknown []string
	for name := range r.metrics {
		if !listed[name] {
			unknown = append(unknown, name)
		}
	}
	sort.Strings(unknown)
	for _, name := range unknown {
		r.errorf("metric %s is not listed in BENCHMARK.json", name)
	}
	res.Errors = r.errs
	res.Correct = len(r.errs) == 0
	return res, nil
}
