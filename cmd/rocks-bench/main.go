// rocks-bench is the repository's performance harness. With no -workload it
// runs all four workloads from one process, checks every output, prints
// every metric by name with its unit, and writes one fixed-schema result
// file; -trace 1 repeats each workload with the span recorder on and adds
// the per-layer metrics. With -workload it runs that one and ends its
// output with the one-line JSON object the regression gate reads.
//
//	go run ./cmd/rocks-bench -seed 1
//	go run ./cmd/rocks-bench -seed 1 -trace 1
//	go run ./cmd/rocks-bench -workload admin_mix -seed 7 -seconds 20 -trace 0
//	go run ./cmd/rocks-bench -compare setA setB
//
// internal/bench/README.md describes the workloads and metrics.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime/pprof"

	"rocks/internal/bench"
)

func main() {
	workload := flag.String("workload", "", "run only this workload and end with the gate's JSON line (default: all four)")
	seed := flag.Int64("seed", 1, "workload seed: the same seed gives the same inputs")
	seconds := flag.Float64("seconds", 0, "length of each timed section (default: run_seconds of the spec)")
	trace := flag.Int("trace", 0, "1 = span recorder on: per-layer metrics and trace-<workload>.json")
	clients := flag.Int("clients", 0, "C, the load-generating goroutines/connections (default min(nproc, 4))")
	out := flag.String("out", filepath.Join(".bench_build", "out"), "directory for result and trace files")
	specPath := flag.String("spec", "BENCHMARK.json", "benchmark spec: metric names, units and bounds")
	compare := flag.Bool("compare", false, "compare two directories of result files against the spec's bounds")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile of the whole invocation to this file")
	flag.Parse()

	spec, err := bench.LoadSpec(*specPath)
	if err != nil {
		fatal(err)
	}
	if *compare {
		os.Exit(runCompare(spec, flag.Args()))
	}
	if flag.NArg() != 0 {
		fatal(fmt.Errorf("unexpected arguments %v", flag.Args()))
	}
	if *seconds == 0 {
		*seconds = float64(spec.RunSeconds)
	}
	work := filepath.Join(".bench_build", "work")
	for _, dir := range []string{*out, work} {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			fatal(err)
		}
	}
	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fatal(err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fatal(err)
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
		}()
	}
	opt := bench.Options{Seed: *seed, Seconds: *seconds, Clients: *clients, WorkDir: work}

	names, modes := bench.Names(), []bool{false}
	if *workload != "" {
		names, modes = []string{*workload}, []bool{*trace == 1}
	} else if *trace == 1 {
		modes = []bool{false, true}
	}
	file := bench.NewFile(opt)
	ok := true
	for _, name := range names {
		for _, traced := range modes {
			opt.Trace = traced
			res, err := bench.Run(spec, name, opt)
			if err != nil {
				fatal(err)
			}
			file.Workloads = append(file.Workloads, res)
			report(res)
			if traced {
				path := filepath.Join(*out, "trace-"+name+".json")
				if err := bench.WriteTrace(path, name, *seed, res.Spans()); err != nil {
					fatal(err)
				}
			}
			ok = ok && res.Correct
		}
	}
	path, err := file.Write(*out)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("result file: %s\n", path)
	if *workload != "" {
		fmt.Println(file.Workloads[0].ContractLine())
	}
	if !ok {
		os.Exit(1)
	}
}

// report prints one run: its counts, every metric, and any failed check.
func report(res *bench.Result) {
	mode := "end-to-end"
	if res.Trace {
		mode = "per-layer (traced)"
	}
	fmt.Printf("== %s  %s  sizes %v  wall %.1f s  timed %.1f s  attempted %d  failed %d  correct %v\n",
		res.Workload, mode, res.Sizes, res.WallS, res.TimedS, res.Attempted, res.Failed, res.Correct)
	for _, m := range res.Metrics {
		fmt.Printf("%-40s %14.4f %-6s n=%d\n", m.Name, m.Value, m.Unit, m.N)
	}
	for _, e := range res.Errors {
		fmt.Fprintf(os.Stderr, "rocks-bench: %s: CHECK FAILED: %s\n", res.Workload, e)
	}
}

func runCompare(spec *bench.Spec, dirs []string) int {
	if len(dirs) != 2 {
		fatal(fmt.Errorf("-compare takes two directories of result files, got %d arguments", len(dirs)))
	}
	a, err := bench.ReadSet(dirs[0])
	if err != nil {
		fatal(err)
	}
	b, err := bench.ReadSet(dirs[1])
	if err != nil {
		fatal(err)
	}
	rows := bench.Compare(spec, a, b)
	bench.PrintComparison(os.Stdout, rows)
	for _, c := range rows {
		if c.Verdict != bench.Same {
			return 1
		}
	}
	return 0
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "rocks-bench:", err)
	os.Exit(2)
}
