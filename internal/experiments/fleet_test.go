package experiments

import (
	"math"
	"reflect"
	"sort"
	"testing"
)

// TestFleetGoldens pins the model's headline outputs at 1 000 and 10 000
// nodes to the values recorded before Table I, the relay curve and the
// federation curve became one simulator. Virtual time is a deterministic
// function of the parameters, so the comparison is exact: any change to
// event order, flow naming or the arithmetic of a rate shows up here.
func TestFleetGoldens(t *testing.T) {
	eq := func(what string, got, want float64) {
		t.Helper()
		if got != want {
			t.Errorf("%s = %v, recorded %v", what, got, want)
		}
	}
	for _, g := range []struct {
		nodes                           int
		offLast                         float64
		on90, onLast                    float64
		onWaves                         int
		onFrontend, onPeer              float64
		fedRelayLast, fedDelta, fedFull float64
	}{
		{1000, 19960.211337545643,
			1994.183671296, 2015.0144699306559, 14, 1.1324617296e10, 2.24604909704e11,
			1399, 2840.6514171932054, 2997.1731078935704},
		{10000, 196047.11337545645,
			2812.367342592, 2812.367342592, 42, 1.887436216e10, 2.34042090784e12,
			2184.673465856, 24851.514171932056, 25008.035862632423},
	} {
		curves := RunCurveComparison(g.nodes)
		eq("relay off time-to-last", curves.FrontendOnly.TimeToLast, g.offLast)
		on := curves.Relay
		eq("relay on time-to-90", on.TimeTo90, g.on90)
		eq("relay on time-to-last", on.TimeToLast, g.onLast)
		eq("relay on frontend bytes", on.FrontendBytes, g.onFrontend)
		eq("relay on peer bytes", on.PeerBytes, g.onPeer)
		if on.Waves != g.onWaves {
			t.Errorf("%d nodes: relay waves = %d, recorded %d", g.nodes, on.Waves, g.onWaves)
		}
		eq("8 shards, relay on, time-to-last",
			RunInstallCurve(FleetParams{Nodes: g.nodes, Shards: 8, Relay: true}).TimeToLast, g.fedRelayLast)
		fed := RunFederationComparison(g.nodes, 8, false)
		eq("8 shards time-to-last", fed.DeltaMirror.TimeToLast, g.fedDelta)
		eq("8 shards, full mirror, time-to-last", fed.FullMirror.TimeToLast, g.fedFull)
		eq("mirror phase", fed.FullMirror.MirrorSecs, 156.52169070036516)
	}
}

// TestTableIIsTheFleetModel pins the six Table I points the per-package
// model produced before it was deleted: the fleet model with one frontend,
// no relays and no shards reproduces them, every node finishing together.
func TestTableIIsTheFleetModel(t *testing.T) {
	want := map[int]float64{1: 618, 2: 618, 4: 618, 8: 618, 16: 708.043381, 32: 1021.086763}
	for _, r := range RunTableI() {
		if got := r.ModelMinutes * 60; math.Abs(got-want[r.Nodes]) > 1e-6 {
			t.Errorf("%d nodes: %.9f s, Table I model gave %.6f s", r.Nodes, got, want[r.Nodes])
		}
		if r.PerNodeSpread > 1e-6 {
			t.Errorf("%d nodes: per-node spread %g s, want none", r.Nodes, r.PerNodeSpread)
		}
	}
}

// TestFleetParamsZeroMeansDefault is the struct's one rule: a partially
// filled FleetParams runs exactly as DefaultFleetParams with those fields
// set.
func TestFleetParamsZeroMeansDefault(t *testing.T) {
	for _, tc := range []struct {
		name    string
		partial FleetParams
		full    func() FleetParams
	}{
		{"nodes only", FleetParams{Nodes: 4},
			func() FleetParams { return DefaultFleetParams(4, false) }},
		{"relay", FleetParams{Nodes: 40, Relay: true},
			func() FleetParams { return DefaultFleetParams(40, true) }},
		{"the harness's federation literal", FederationParams{Nodes: 64, Shards: 4, Relay: true},
			func() FleetParams { p := DefaultFleetParams(64, true); p.Shards = 4; return p }},
		{"negative shards", FleetParams{Nodes: 4, Shards: -1},
			func() FleetParams { return DefaultFleetParams(4, false) }},
		{"one link rate", FleetParams{Nodes: 16, FrontendBps: mbps(7)},
			func() FleetParams { p := DefaultFleetParams(16, false); p.FrontendBps = mbps(7); return p }},
		{"workload without timings", FleetParams{Nodes: 4, TotalBytes: 1e8},
			func() FleetParams { p := DefaultFleetParams(4, false); p.TotalBytes = 1e8; return p }},
		{"burst mode and frontends", FleetParams{Nodes: 8, Frontends: 2, StreamBps: singleStreamBps},
			func() FleetParams {
				p := DefaultFleetParams(8, false)
				p.Frontends, p.StreamBps = 2, singleStreamBps
				return p
			}},
	} {
		got, want := RunInstallCurve(tc.partial), RunInstallCurve(tc.full())
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: partial struct ran as %+v (last %v), want %+v (last %v)",
				tc.name, got.Params, got.TimeToLast, want.Params, want.TimeToLast)
		}
	}
}

// TestShardsAreIndependentRuns: a sharded run is the sorted concatenation
// of one unsharded run per shard size, each delayed by the mirror phase.
func TestShardsAreIndependentRuns(t *testing.T) {
	for _, tc := range []struct {
		nodes, shards int
		relay         bool
		mirrorBytes   float64
		sizes         []int
	}{
		{10, 4, false, 0, []int{3, 3, 2, 2}},
		{100, 3, true, 0, []int{34, 33, 33}},
		{70, 2, true, 5e8, []int{35, 35}},
		{3, 5, false, 1e8, []int{1, 1, 1}},
	} {
		p := DefaultFleetParams(tc.nodes, tc.relay)
		p.Shards, p.MirrorBytes = tc.shards, tc.mirrorBytes
		got := RunInstallCurve(p)
		if want := tc.mirrorBytes * float64(tc.shards) / p.FrontendBps; got.MirrorSecs != want {
			t.Errorf("%d/%d: MirrorSecs = %v, want %v", tc.nodes, tc.shards, got.MirrorSecs, want)
		}
		var want []float64
		frontend, peer := tc.mirrorBytes*float64(tc.shards), 0.0
		for _, size := range tc.sizes {
			c := RunInstallCurve(DefaultFleetParams(size, tc.relay))
			for _, at := range c.Times {
				want = append(want, at+got.MirrorSecs)
			}
			frontend += c.FrontendBytes
			peer += c.PeerBytes
		}
		sort.Float64s(want)
		if !reflect.DeepEqual(got.Times, want) {
			t.Errorf("%d/%d: merged times %v, want %v", tc.nodes, tc.shards, got.Times, want)
		}
		if got.FrontendBytes != frontend || got.PeerBytes != peer {
			t.Errorf("%d/%d: bytes (%v, %v), want (%v, %v)", tc.nodes, tc.shards,
				got.FrontendBytes, got.PeerBytes, frontend, peer)
		}
		if len(got.PerShard) != len(tc.sizes) {
			t.Errorf("%d/%d: %d per-shard curves, want %d", tc.nodes, tc.shards, len(got.PerShard), len(tc.sizes))
		}
	}
}

// TestFrontendsDivideTheLoad: N replicated servers each see 1/N of the
// nodes (§6.3), so 32 nodes on 4 frontends finish when 8 on one do.
func TestFrontendsDivideTheLoad(t *testing.T) {
	quad := DefaultFleetParams(32, false)
	quad.Frontends = 4
	four, one := RunInstallCurve(quad), RunInstallCurve(DefaultFleetParams(8, false))
	if math.Abs(four.TimeToLast-one.TimeToLast) > 1e-9 {
		t.Errorf("32 nodes on 4 frontends finish at %v, 8 on one at %v", four.TimeToLast, one.TimeToLast)
	}
	// Contended too: 64 on 4 frontends is 16 on one, past the ~11-node knee.
	quad.Nodes = 64
	four, one = RunInstallCurve(quad), RunInstallCurve(DefaultFleetParams(16, false))
	if math.Abs(four.TimeToLast-one.TimeToLast) > 1e-9 {
		t.Errorf("64 nodes on 4 frontends finish at %v, 16 on one at %v", four.TimeToLast, one.TimeToLast)
	}
}
