package bench

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"rocks/internal/experiments"
	"rocks/internal/simnet"
)

// The 10 000-node figures earlier PRs recorded (BENCH_pr8.json,
// BENCH_pr9.json). The models are deterministic, so set-up reruns them and
// any difference is a changed model, not noise.
const (
	goldenNodes, goldenShards = 10000, 8

	goldenRelaySpeedup    = 69.7 // relay vs frontend-only time-to-last
	goldenFedSpeedup      = 7.9  // 8 shards vs one frontend, frontend-only
	goldenFedRelaySpeedup = 1.29 // 8 shards atop the relay tier
	goldenFrontendLastS   = 196047
	goldenRelayLastS      = 2812
	goldenFedLastS        = 24852
	goldenFedRelayLastS   = 2185
)

// checkGoldens reruns the 10 000-node comparisons.
func checkGoldens(r *run) {
	near := func(what string, got, want, unit float64) {
		if math.Round(got/unit) != math.Round(want/unit) {
			r.errorf("golden %s = %v, recorded %v", what, got, want)
		}
	}
	curve := experiments.RunCurveComparison(goldenNodes)
	near("relay speedup at 10k", curve.Speedup(), goldenRelaySpeedup, 0.1)
	near("frontend-only time-to-last at 10k", curve.FrontendOnly.TimeToLast, goldenFrontendLastS, 1)
	near("relay time-to-last at 10k", curve.Relay.TimeToLast, goldenRelayLastS, 1)
	fed := experiments.RunFederationComparison(goldenNodes, goldenShards, false)
	near("federation speedup at 10k/8", fed.Speedup(), goldenFedSpeedup, 0.1)
	near("federated time-to-last at 10k/8", fed.DeltaMirror.TimeToLast, goldenFedLastS, 1)
	fedRelay := experiments.RunFederationComparison(goldenNodes, goldenShards, true)
	near("federation-over-relay speedup at 10k/8", fedRelay.Speedup(), goldenFedRelaySpeedup, 0.01)
	near("federated relay time-to-last at 10k/8", fedRelay.DeltaMirror.TimeToLast, goldenFedRelayLastS, 1)
}

// fanIn drives n flows of seeded sizes through one shared link, each also
// crossing its own NIC that is never the bottleneck, and returns the virtual
// time the last one finished. Sizes come from a small set: completions then
// fall on few distinct instants, as a fleet's do, and the run costs one
// water-filling pass per instant rather than per flow.
func fanIn(n int, seed int64) (last, want float64) {
	const linkBps, sizeClasses = 1e9, 97
	rng := rand.New(rand.NewSource(seed))
	s := simnet.New()
	shared := s.NewLink("shared", linkBps)
	var total float64
	for i := 0; i < n; i++ {
		nic := s.NewLink("nic", linkBps)
		bytes := 1e6 * float64(1+rng.Intn(sizeClasses))
		total += bytes
		s.StartFlow(fmt.Sprintf("flow-%06d", i), bytes, []*simnet.Link{shared, nic}, 0, func() { last = s.Now() })
	}
	s.Run()
	// The shared link is saturated until the last byte: the fan-in must end
	// exactly when its capacity has carried every byte.
	return last, total / linkBps
}

// modelRep is one repetition: the three fleet models and, unless
// fanInFlows is 0, the bare network. It holds the wall seconds of each call
// and the modeled times-to-last.
type modelRep struct {
	wall [4]float64 // relay off, relay on, federation, fan-in
	ttl  [4]float64
}

func (r *run) modelRep(nodes, fanInFlows int, rec *Recorder) modelRep {
	var rep modelRep
	trace := rec.NewTrace()
	call := func(i int, layer, name string, fn func() float64) {
		t0 := time.Now()
		rep.ttl[i] = fn()
		t1 := time.Now()
		rep.wall[i] = t1.Sub(t0).Seconds()
		rec.Add(trace, 0, layer, name, t0, t1)
	}
	call(0, "experiments", "install_curve relay=off", func() float64 {
		return experiments.RunInstallCurve(experiments.DefaultFleetParams(nodes, false)).TimeToLast
	})
	call(1, "experiments", "install_curve relay=on", func() float64 {
		return experiments.RunInstallCurve(experiments.DefaultFleetParams(nodes, true)).TimeToLast
	})
	call(2, "experiments", "federation_curve relay=on", func() float64 {
		return experiments.RunFederationCurve(experiments.FederationParams{Nodes: nodes, Shards: r.opt.Sizes.ModelShards, Relay: true}).TimeToLast
	})
	if fanInFlows == 0 {
		return rep
	}
	call(3, "simnet", "fan_in", func() float64 {
		last, want := fanIn(fanInFlows, r.opt.Seed)
		if math.Abs(last-want) > 1e-6*want {
			r.errorf("fan-in of %d flows ended at %v s, the link needs %v s", fanInFlows, last, want)
		}
		return last
	})
	return rep
}

// modeled100k runs the modeled plane at 100 000 nodes: simnet and
// experiments do all the work and every live layer none, so a live-plane
// change must leave it flat.
func modeled100k(r *run) error {
	r.sizes["nodes"], r.sizes["shards"], r.sizes["fan_in_flows"] = r.opt.Sizes.ModelNodes, r.opt.Sizes.ModelShards, r.opt.Sizes.FanInFlows

	// Set-up reproduces the recorded 10 000-node figures, and times the
	// three fleet models there for the scaling exponent. At 0.3 s a set-up,
	// three times the usual repetitions are cheap and steady setup_s.
	var small modelRep
	err := r.setups(3*r.opt.Sizes.Setups, func() error {
		checkGoldens(r)
		small = r.modelRep(goldenNodes, 0, nil)
		return nil
	}, func() {})
	if err != nil {
		return err
	}

	var reps []modelRep
	r.timed(func() {
		start := time.Now()
		// At least two repetitions: the second is the first a traced run
		// records, and the times-to-last need one to repeat against.
		for i := 0; i < 2 || time.Since(start).Seconds() < r.opt.Seconds; i++ {
			rec := r.slice(i)
			cpu0, t0 := cpuSeconds(), time.Now()
			rep := r.modelRep(r.opt.Sizes.ModelNodes, r.opt.Sizes.FanInFlows, rec)
			wall := time.Since(t0).Seconds()
			r.addSliceCPU(i, cpuSeconds()-cpu0)
			r.attempt(true)
			r.op(wall*1e3, i)
			r.rates = append(r.rates, 1/wall)
			reps = append(reps, rep)
		}
	})
	for _, rep := range reps[1:] {
		if rep.ttl != reps[0].ttl {
			r.errorf("modeled times-to-last differ between repetitions: %v then %v", reps[0].ttl, rep.ttl)
		}
	}

	if r.opt.Trace {
		col := func(i int) []float64 {
			out := make([]float64, len(reps))
			for k, rep := range reps {
				out[k] = rep.wall[i]
			}
			return out
		}
		r.set("experiments.relay_off_s", median(col(0)), len(reps))
		r.set("experiments.relay_on_s", median(col(1)), len(reps))
		r.set("experiments.federation_s", median(col(2)), len(reps))
		r.set("simnet.fanin_probe_s", median(col(3)), len(reps))
		big := median(col(0)) + median(col(1)) + median(col(2))
		r.set("experiments.scale_exponent", math.Log10(big/(small.wall[0]+small.wall[1]+small.wall[2])), len(reps))
		r.set("experiments.ttl_relay_off_s", reps[0].ttl[0], len(reps))
		r.set("experiments.ttl_relay_on_s", reps[0].ttl[1], len(reps))
		r.set("experiments.ttl_federation_s", reps[0].ttl[2], len(reps))
	}
	return nil
}
