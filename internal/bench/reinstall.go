package bench

import (
	"sync"
	"sync/atomic"
	"time"

	"rocks/internal/node"
)

// reinstallStorm is the paper's worst hour: every node of a 256-node fleet
// reinstalling, C at a time, against one frontend. installer, dist, rpm,
// kickstart and the core CGI do nearly all the work; clusterdb is point
// lookups plus one facts row per install.
func reinstallStorm(r *run) error {
	r.sizes["nodes"], r.sizes["clients"] = r.opt.Sizes.StormNodes, r.opt.Clients

	var f *fleet
	// One set-up fewer than the other workloads: each is StormNodes installs
	// through the same path the timed section measures, long enough to be
	// steady on its own.
	err := r.setups(max(1, r.opt.Sizes.Setups-1), func() error {
		c, _, err := newFrontend(r, false)
		if err != nil {
			return err
		}
		f = newFleet(c)
		return f.integrateAll(r, r.opt.Sizes.StormNodes, 0)
	}, func() { f.close() })
	if err != nil {
		return err
	}
	defer f.close()

	// Closed loop: each of C installers shoots the next node of a seeded
	// order and waits for its `up` before taking another, so every node is
	// shot once per pass over the fleet.
	order := r.rng.Perm(len(f.nodes))
	shotAt := make([]time.Time, len(f.nodes))
	var next atomic.Int64
	totals := counts{}
	r.timedCounted(f.c, totals, func() {
		start := time.Now()
		defer r.watchSlices(start)()
		deadline := time.Duration(r.opt.Seconds * float64(time.Second))
		var wg sync.WaitGroup
		for w := 0; w < r.opt.Clients; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					elapsed := time.Since(start)
					if elapsed >= deadline {
						return
					}
					i := order[int(next.Add(1)-1)%len(order)]
					slice := r.sliceAt(elapsed)
					shotAt[i] = time.Now()
					d, err := f.reinstall(f.nodes[i], r.slice(slice))
					r.attempt(err == nil)
					if err != nil {
						r.errorf("reinstall: %v", err)
						continue
					}
					r.op(float64(d)/1e6, slice)
				}
			}()
		}
		wg.Wait()
		r.rates = append(r.rates, float64(len(r.ops))/time.Since(start).Seconds())
	})

	checkFleet(r, f, shotAt)
	if r.opt.Trace {
		r.countMetrics(totals, r.timedS)
		r.phaseP50s()
		f.probe(r)
	}
	return nil
}

// checkFleet verifies the state a storm must leave behind: every node
// up with exactly the packages its kickstart profile resolves to, manifests
// identical within each hardware class, one fresh clean facts record per
// node, every node back in the batch pool, and no event lost on the way.
func checkFleet(r *run, f *fleet, shotAt []time.Time) {
	want := map[string]int{} // by arch
	manifest := map[string]string{}
	for _, n := range f.nodes {
		if n.State() != node.StateUp {
			r.errorf("%s is %s, want up", n.Name(), n.State())
			continue
		}
		if _, ok := want[n.HW.Arch]; !ok {
			pkgs, err := resolvedPackages(f.c, n.HW.Arch, n.IP())
			if err != nil {
				r.errorf("resolving %s profile: %v", n.HW.Arch, err)
			}
			want[n.HW.Arch] = len(pkgs)
		}
		if got := n.PackageDB().Len(); got != want[n.HW.Arch] {
			r.errorf("%s has %d packages, its profile resolves to %d", n.Name(), got, want[n.HW.Arch])
		}
		m := n.PackageDB().Manifest()
		if ref, ok := manifest[n.HW.Model]; !ok {
			manifest[n.HW.Model] = m
		} else if m != ref {
			r.errorf("%s's package manifest differs from its hardware class %q", n.Name(), n.HW.Model)
		}
	}

	shot := map[string]time.Time{}
	for i, n := range f.nodes {
		shot[n.MAC()] = shotAt[i]
	}
	inv := f.c.FactsInventory()
	if len(inv.Facts) != len(f.nodes) {
		r.errorf("/v1/facts holds %d records, want %d", len(inv.Facts), len(f.nodes))
	}
	for _, e := range inv.Facts {
		if e.ReportedAt.Before(shot[e.MAC]) {
			r.errorf("facts record of %s predates its last reinstall", e.Node)
		}
		if e.Actionable {
			r.errorf("%s reports actionable drift: %v", e.Node, e.Drift)
		}
	}
	if moms := len(f.c.PBS.Moms()); moms != len(f.nodes) {
		r.errorf("PBS has %d moms, want %d", moms, len(f.nodes))
	}
	if drops := f.c.Events().SubscriberDrops(); drops != 0 {
		r.errorf("lifecycle bus dropped %d events to a subscriber", drops)
	}
}
