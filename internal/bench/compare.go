package bench

import (
	"fmt"
	"io"
	"text/tabwriter"
)

// Verdicts of Compare.
const (
	Same       = "same"       // B's median is within the bound of A's
	Unresolved = "unresolved" // a set's own spread is wider than the bound
	Worse      = "worse"      // B's median is worse than A's by more than the bound
)

// Comparison is one workload × end-to-end metric across two sets of runs.
type Comparison struct {
	Workload, Metric, Unit string
	Bound                  float64
	A, B                   [3]float64 // first quartile, median, third quartile
	NA, NB                 int
	Verdict                string
}

// values collects one metric's untraced values for one workload over a set.
func values(set []*File, workload, metric string) []float64 {
	var out []float64
	for _, f := range set {
		for _, w := range f.Workloads {
			if w.Workload != workload || w.Trace {
				continue
			}
			for _, m := range w.Metrics {
				if m.Name == metric {
					out = append(out, m.Value)
				}
			}
		}
	}
	return out
}

// beatsAll reports whether every run of b reads better than every run of a;
// sign is +1 when lower is better, -1 when higher is.
func beatsAll(a, b []float64, sign float64) bool {
	for _, x := range a {
		for _, y := range b {
			if sign*(y-x) >= 0 {
				return false
			}
		}
	}
	return true
}

// Compare applies the spec's bounds to two sets of result files, A (the
// parent, or the first set of a repeatability check) and B. A metric whose
// run-to-run spread in either set exceeds its bound cannot tell a change
// from noise: it reads unresolved, unless every run of B is better than
// every run of A.
func Compare(spec *Spec, a, b []*File) []Comparison {
	var out []Comparison
	for _, w := range spec.Workloads {
		for _, ms := range spec.EndToEnd {
			va, vb := values(a, w.Name, ms.Name), values(b, w.Name, ms.Name)
			if len(va) == 0 && len(vb) == 0 {
				continue
			}
			c := Comparison{Workload: w.Name, Metric: ms.Name, Unit: ms.Unit, Bound: ms.Bound, NA: len(va), NB: len(vb)}
			c.A[0], c.A[1], c.A[2] = quartiles(va)
			c.B[0], c.B[1], c.B[2] = quartiles(vb)
			sign := 1.0 // positive worsening means "got bigger"
			if ms.Better == "higher" {
				sign = -1
			}
			worsening := sign * (c.B[1] - c.A[1]) / c.A[1]
			switch {
			case len(va) == 0 || len(vb) == 0:
				c.Verdict = Unresolved
			case beatsAll(va, vb, sign):
				c.Verdict = Same
			case ms.Name != "setup_s" && (spread(va) > ms.Bound || spread(vb) > ms.Bound):
				// The gate exempts set-up time from the spread rule too: it
				// only asks that its median not drift.
				c.Verdict = Unresolved
			case worsening > ms.Bound:
				c.Verdict = Worse
			default:
				c.Verdict = Same
			}
			out = append(out, c)
		}
	}
	return out
}

// PrintComparison renders Compare's rows as a table.
func PrintComparison(w io.Writer, rows []Comparison) {
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tunit\tbound\tA q1 / median / q3 (n)\tB q1 / median / q3 (n)\tverdict")
	for _, c := range rows {
		fmt.Fprintf(tw, "%s\t%s\t%s\t%.0f%%\t%.4g / %.4g / %.4g (%d)\t%.4g / %.4g / %.4g (%d)\t%s\n",
			c.Workload, c.Metric, c.Unit, c.Bound*100,
			c.A[0], c.A[1], c.A[2], c.NA, c.B[0], c.B[1], c.B[2], c.NB, c.Verdict)
	}
	tw.Flush()
}
