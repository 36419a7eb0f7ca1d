package experiments

import "fmt"

// CurveComparison pairs both distribution modes at one fleet size.
type CurveComparison struct {
	FrontendOnly CompletionCurve
	Relay        CompletionCurve
}

// Speedup reports how much faster relay mode finished the whole fleet.
func (c CurveComparison) Speedup() float64 {
	return c.FrontendOnly.TimeToLast / c.Relay.TimeToLast
}

// RunCurveComparison runs both modes at one fleet size.
func RunCurveComparison(n int) CurveComparison {
	return CurveComparison{
		FrontendOnly: RunInstallCurve(DefaultFleetParams(n, false)),
		Relay:        RunInstallCurve(DefaultFleetParams(n, true)),
	}
}

// FormatCurves renders the comparison the way cluster-sim prints it.
func FormatCurves(rows []CurveComparison) string {
	s := fmt.Sprintf("%-7s %-26s %-26s %-9s\n", "Nodes",
		"Frontend-only 90%/last (s)", "Relay 90%/last (s)", "Speedup")
	for _, r := range rows {
		s += fmt.Sprintf("%-7d %-26s %-26s %-9.1f\n", r.Relay.Params.Nodes,
			fmt.Sprintf("%.0f / %.0f", r.FrontendOnly.TimeTo90, r.FrontendOnly.TimeToLast),
			fmt.Sprintf("%.0f / %.0f", r.Relay.TimeTo90, r.Relay.TimeToLast),
			r.Speedup())
	}
	return s
}

// FederationParams and RunFederationCurve are the spellings the benchmark
// harness (internal/bench, frozen between benchmark PRs) compiles against;
// they go when the next benchmark PR moves it to RunInstallCurve.
type FederationParams = FleetParams

func RunFederationCurve(p FederationParams) CompletionCurve { return RunInstallCurve(p) }

// FederationComparison pits one frontend against the sharded hierarchy at
// a single fleet size, with the hierarchy costed both ways: a cold full
// mirror and the delta re-mirror of an unchanged tree.
type FederationComparison struct {
	// Single is the whole fleet on one frontend.
	Single CompletionCurve
	// FullMirror pays the cold cascade (every child pulls every body);
	// DeltaMirror pays nothing (unchanged tree, manifest-only cascade).
	FullMirror  CompletionCurve
	DeltaMirror CompletionCurve
}

// RunFederationComparison runs all three configurations.
func RunFederationComparison(nodes, shards int, relay bool) FederationComparison {
	p := DefaultFleetParams(nodes, relay)
	out := FederationComparison{Single: RunInstallCurve(p)}
	p.Shards = shards
	out.DeltaMirror = RunInstallCurve(p)
	p.MirrorBytes = p.TotalBytes
	out.FullMirror = RunInstallCurve(p)
	return out
}

// Speedup reports how much faster the warm (delta-mirrored) hierarchy
// finished the whole fleet than the single frontend.
func (c FederationComparison) Speedup() float64 {
	return c.Single.TimeToLast / c.DeltaMirror.TimeToLast
}

// FormatFederationCurves renders comparisons the way cluster-sim prints them.
func FormatFederationCurves(rows []FederationComparison) string {
	s := fmt.Sprintf("%-7s %-7s %-9s %-17s %-20s %-20s %-8s\n",
		"Nodes", "Shards", "Relay", "Single last (s)", "Full-mirror last (s)", "Delta-mirror last (s)", "Speedup")
	for _, r := range rows {
		p := r.DeltaMirror.Params
		s += fmt.Sprintf("%-7d %-7d %-9v %-17.0f %-20.0f %-20.0f %-8.1f\n",
			p.Nodes, p.Shards, p.Relay, r.Single.TimeToLast,
			r.FullMirror.TimeToLast, r.DeltaMirror.TimeToLast, r.Speedup())
	}
	return s
}
