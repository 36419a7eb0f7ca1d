package bench

import (
	"fmt"
	"os"
	"sync"
	"time"

	"rocks/internal/clusterdb"
	"rocks/internal/core"
	"rocks/internal/hardware"
	"rocks/internal/lifecycle"
	"rocks/internal/node"
)

const (
	// dhcpRetry is the interval installers re-broadcast DISCOVER at, and the
	// interval the harness's own DHCP confirmation retries at: both wait out
	// the same transient gaps in the binding table.
	dhcpRetry = 10 * time.Millisecond
	// opTimeout bounds any single operation; one that hits it is counted as
	// failed rather than hanging the run.
	opTimeout = 60 * time.Second
)

// newFrontend boots a real loopback frontend: in-memory database, or a
// durable one (WAL on, fsync off, default snapshot cadence) in a fresh
// directory under the run's work directory, which is returned. eKV and
// relays stay off.
func newFrontend(r *run, durable bool) (c *core.Cluster, dbDir string, err error) {
	cfg := core.Config{Name: "rocks-bench", DisableEKV: true, DHCPRetry: dhcpRetry}
	if durable {
		if dbDir, err = os.MkdirTemp(r.opt.WorkDir, "db-"); err != nil {
			return nil, "", err
		}
		cfg.DBDir = dbDir
	}
	c, err = core.New(cfg)
	return c, dbDir, err
}

// installPhases are the seven consecutive intervals of one install, each
// ending at a lifecycle event. The first starts at the harness's ShootNode
// (or PowerOn) call, so the seven sum to the shoot→up latency.
var installPhases = []struct {
	layer, name string
	end         lifecycle.EventType
}{
	{"installer", "lease", lifecycle.EventLease},
	{"installer", "kickstart", lifecycle.EventKickstart},
	{"installer", "partition", lifecycle.EventPartition},
	{"installer", "packages", lifecycle.EventPackages},
	{"installer", "post", lifecycle.EventInstallComplete},
	{"installer", "facts", lifecycle.EventFactsReported},
	{"core", "comeup", lifecycle.EventUp},
}

// fleet is a frontend plus the live nodes installed against it, with one
// subscription to the lifecycle bus routing each node's events to whoever
// is waiting on that node.
type fleet struct {
	c     *core.Cluster
	nodes []*node.Node

	cancel func()
	done   chan struct{}
	wg     sync.WaitGroup

	mu       sync.Mutex
	attempts map[string]*attempt // by MAC; at most one in flight per node
}

// attempt is one install in flight. Untraced attempts keep nothing but the
// event that ends them.
type attempt struct {
	rec    *Recorder
	events []lifecycle.Event
	end    chan lifecycle.Event // buffered 1: up, or install-failed
}

func newFleet(c *core.Cluster) *fleet {
	f := &fleet{c: c, done: make(chan struct{}), attempts: map[string]*attempt{}}
	// The buffer must outlast the dispatcher being descheduled during a
	// storm (≈10 events per install, tens of installs per second); a drop
	// would lose an `up` and is checked for via SubscriberDrops.
	events, cancel := c.Events().Subscribe(1 << 16)
	f.cancel = cancel
	f.wg.Add(1)
	go func() {
		defer f.wg.Done()
		for {
			select {
			case e := <-events:
				f.route(e)
			case <-f.done:
				return
			}
		}
	}()
	return f
}

func (f *fleet) route(e lifecycle.Event) {
	f.mu.Lock()
	defer f.mu.Unlock()
	a := f.attempts[e.MAC]
	if a == nil {
		return
	}
	if a.rec != nil {
		a.events = append(a.events, e)
	}
	if e.Type == lifecycle.EventUp || e.Type == lifecycle.EventInstallFailed {
		delete(f.attempts, e.MAC)
		a.end <- e
	}
}

// close stops the dispatcher and the frontend.
func (f *fleet) close() {
	close(f.done)
	f.wg.Wait()
	f.cancel()
	f.c.Close()
}

// install starts one install with start (a PowerOn or ShootNode call) and
// waits for the node's `up`. It returns the latency from just before start
// to the bus timestamp of `up`. With a recorder it also records the root
// span and the seven phase spans.
func (f *fleet) install(n *node.Node, rec *Recorder, start func() error) (time.Duration, error) {
	a := &attempt{rec: rec, end: make(chan lifecycle.Event, 1)}
	f.mu.Lock()
	if f.attempts[n.MAC()] != nil {
		f.mu.Unlock()
		return 0, fmt.Errorf("%s is still installing", n.MAC())
	}
	f.attempts[n.MAC()] = a
	f.mu.Unlock()

	t0 := time.Now()
	if err := start(); err != nil {
		f.mu.Lock()
		delete(f.attempts, n.MAC())
		f.mu.Unlock()
		return 0, err
	}
	timeout := time.NewTimer(opTimeout)
	defer timeout.Stop()
	select {
	case e := <-a.end:
		if e.Type != lifecycle.EventUp {
			return 0, fmt.Errorf("%s: %s: %s", e.Node, e.Type, e.Detail)
		}
		if rec != nil {
			recordInstall(rec, t0, e.Time, a.events)
		}
		return e.Time.Sub(t0), nil
	case <-timeout.C:
		f.mu.Lock()
		delete(f.attempts, n.MAC())
		f.mu.Unlock()
		return 0, fmt.Errorf("%s not up after %s (state %s)", n.MAC(), opTimeout, n.State())
	}
}

// recordInstall turns one attempt's events into a root span and its phases.
func recordInstall(rec *Recorder, t0, up time.Time, events []lifecycle.Event) {
	at := map[lifecycle.EventType]time.Time{}
	for _, e := range events {
		if _, seen := at[e.Type]; !seen {
			at[e.Type] = e.Time
		}
	}
	trace := rec.NewTrace()
	root := rec.Add(trace, 0, "core", "install", t0, up)
	from := t0
	for _, p := range installPhases {
		end, ok := at[p.end]
		if !ok {
			return // e.g. facts-failed: the remaining phases are not separable
		}
		rec.Add(trace, root, p.layer, p.name, from, end)
		from = end
	}
}

// reinstall shoots one live node and waits for it to come back.
func (f *fleet) reinstall(n *node.Node, rec *Recorder) (time.Duration, error) {
	return f.install(n, rec, func() error { return f.c.ShootNode(n.Name()) })
}

// integrate discovers and installs one rack of new machines through
// insert-ethers, all powered on at once, and adds them to the fleet.
func (f *fleet) integrate(profiles []hardware.Profile, rack int) error {
	ie, err := f.c.StartInsertEthers(clusterdb.MembershipCompute, rack)
	if err != nil {
		return err
	}
	defer ie.Stop()
	errs := make(chan error, len(profiles))
	for _, hw := range profiles {
		n := node.New(hw)
		f.nodes = append(f.nodes, n)
		go func() {
			_, err := f.install(n, nil, func() error { f.c.PowerOn(n); return nil })
			errs <- err
		}()
	}
	for range profiles {
		if e := <-errs; e != nil && err == nil {
			err = e
		}
	}
	if err != nil {
		return err
	}
	return f.c.FlushReports()
}

// computeProfiles draws n machines from the compute entries of the Meteor
// catalog (three PIII types with Myrinet, an Athlon, an IA-64): three
// kickstart-cache classes, and a GM driver rebuild on three types in five.
func computeProfiles(r *run, c *core.Cluster, n int) []hardware.Profile {
	const computeTypes = 5 // hardware.Catalog lists the compute types first
	out := make([]hardware.Profile, n)
	for i := range out {
		out[i] = hardware.Catalog(c.MACs())[r.rng.Intn(computeTypes)]
	}
	return out
}

// integrateAll integrates n seeded machines, RackSize to a rack from
// firstRack up.
func (f *fleet) integrateAll(r *run, n, firstRack int) error {
	profiles := computeProfiles(r, f.c, n)
	for rack := firstRack; len(profiles) > 0; rack++ {
		k := min(r.opt.Sizes.RackSize, len(profiles))
		if err := f.integrate(profiles[:k], rack); err != nil {
			return err
		}
		profiles = profiles[k:]
	}
	return nil
}

// phaseP50s reports the median of each install phase over the recorded
// spans, under prefix-free names (installer.lease_ms_p50 …).
func (r *run) phaseP50s() {
	byName := map[string][]float64{}
	for _, s := range r.rec.Spans() {
		byName[s.Layer+"."+s.Name] = append(byName[s.Layer+"."+s.Name], float64(s.EndNS-s.StartNS)/1e6)
	}
	for _, p := range installPhases {
		ms := byName[p.layer+"."+p.name]
		r.set(p.layer+"."+p.name+"_ms_p50", percentile(ms, 50), len(ms))
	}
}

// probe runs the at-rest probes against the fleet's frontend, with its
// first live node as the target.
func (f *fleet) probe(r *run) {
	n := f.nodes[0]
	row, ok, err := clusterdb.NodeByName(f.c.DB, n.Name())
	if err != nil || !ok {
		r.errorf("probe: no row for %s: %v", n.Name(), err)
		return
	}
	probeFrontend(r, f.c, row, n.HW)
}
