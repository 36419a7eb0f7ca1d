package core

import (
	"context"
	"fmt"
	"maps"
	"net/http"
	"sort"
	"strings"
	"sync"
	"time"

	"rocks/internal/clusterdb"
	"rocks/internal/ekv"
	"rocks/internal/faults"
	"rocks/internal/federation"
	"rocks/internal/hardware"
	"rocks/internal/installer"
	"rocks/internal/lifecycle"
	"rocks/internal/metrics"
	"rocks/internal/nis"
	"rocks/internal/node"
	"rocks/internal/power"
	"rocks/internal/rexec"
	"rocks/internal/rpm"
)

// The floor is the machine room: every simulated machine, the PDU outlets
// handed out, and the lifecycle that boots, installs and brings a machine
// up. It is the one file in package core that holds a *node.Node. The
// frontend's other files reach a machine only the way a Rocks frontend does:
// they resolve a hostname through the database (insert-ethers names a node
// before its first lease), then ping it, exec on it (rexec, cluster-fork,
// shoot-node) or cycle its outlet (§4).

// The states ping answers with: a machine's lifecycle state, or unknownHost
// for a name no row holds or a MAC no machine has.
const (
	hostUp         = string(node.StateUp)
	hostInstalling = string(node.StateInstalling)
	hostCrashed    = string(node.StateCrashed)
	unknownHost    = "unknown host"
)

// floor indexes the machines by MAC and counts the PDU outlets handed out.
// One lock covers both; a machine's own lock nests inside it.
type floor struct {
	db       *clusterdb.Database // resolves hostnames to MACs
	held     *rpm.Held           // every package an install verified, once
	mu       sync.Mutex
	machines map[string]*node.Node // by MAC
	outlets  int
}

func newFloor(db *clusterdb.Database) *floor {
	return &floor{db: db, held: rpm.NewHeld(), machines: make(map[string]*node.Node)}
}

// plug hands out the next PDU outlet and reports whether the machine at mac
// is already tracked.
func (f *floor) plug(mac string) (outlet int, tracked bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	_, tracked = f.machines[mac]
	f.outlets++
	return f.outlets, tracked
}

// machine returns the tracked machine at a MAC.
func (f *floor) machine(mac string) (*node.Node, bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	n, ok := f.machines[mac]
	return n, ok
}

// lookup finds a machine by MAC, or by hostname through the nodes_name
// index, as /etc/hosts is derived.
func (f *floor) lookup(host string) (*node.Node, bool) {
	if n, ok := f.machine(host); ok {
		return n, true
	}
	row, ok, err := clusterdb.NodeByName(f.db, host)
	if err != nil || !ok {
		return nil, false
	}
	return f.machine(row.MAC)
}

// ping answers a management-Ethernet reachability probe by hostname or MAC.
// Per §4, the network is up while Linux runs (node Up) and during
// installation (eKV is reachable); a node that is off, mid-boot, or crashed
// is dark.
func (f *floor) ping(host string) (bool, string) {
	n, ok := f.lookup(host)
	if !ok {
		return false, unknownHost
	}
	st := string(n.State())
	return st == hostUp || st == hostInstalling, st
}

// executor adapts lookup to the ctools Lookup contract: rexec reaches any
// machine the database names, and the machine refuses commands while down.
func (f *floor) executor(host string) (rexec.Executor, bool) {
	if n, ok := f.lookup(host); ok {
		return n, true
	}
	return nil, false
}

// spec is the hardware of the machine at mac: what its facts report is
// diffed against.
func (f *floor) spec(mac string) (hardware.Profile, bool) {
	n, ok := f.machine(mac)
	if !ok {
		return hardware.Profile{}, false
	}
	return n.HW, true
}

// macs lists every tracked machine's MAC.
func (f *floor) macs() []string {
	f.mu.Lock()
	defer f.mu.Unlock()
	out := make([]string, 0, len(f.machines))
	for mac := range f.machines {
		out = append(out, mac)
	}
	return out
}

// retire powers the machine at mac off and forgets it (decommission).
func (f *floor) retire(mac string) {
	f.mu.Lock()
	n, ok := f.machines[mac]
	delete(f.machines, mac)
	f.mu.Unlock()
	if ok {
		n.PowerOff()
	}
}

// states sets each row's State to its machine's, under one hold of the lock
// for the whole listing (/v1/nodes); a row with no machine keeps "".
func (f *floor) states(rows []federation.NodeRow) {
	f.mu.Lock()
	defer f.mu.Unlock()
	for i := range rows {
		if n, ok := f.machines[rows[i].MAC]; ok {
			rows[i].State = string(n.State())
		}
	}
}

// registerMetrics exposes the machine population.
func (f *floor) registerMetrics(r *metrics.Registry) {
	r.GaugeFunc("rocks_nodes",
		"Nodes the cluster tracks, including the frontend.",
		func() float64 {
			f.mu.Lock()
			defer f.mu.Unlock()
			return float64(len(f.machines))
		})
	r.GaugeVecFunc("rocks_nodes_state",
		"Nodes per lifecycle state.", []string{"state"},
		func() []metrics.Sample {
			counts := make(map[node.State]int)
			f.mu.Lock()
			for _, n := range f.machines {
				counts[n.State()]++
			}
			f.mu.Unlock()
			out := make([]metrics.Sample, 0, len(counts))
			for state, n := range counts {
				out = append(out, metrics.Sample{Labels: []string{string(state)}, Value: float64(n)})
			}
			return out
		})
}

// PowerOn starts a node's boot lifecycle in the background and wires it to
// the cluster (reboot hook, PDU outlet). The node installs itself if its
// disk is blank or a reinstall was forced.
func (c *Cluster) PowerOn(n *node.Node) {
	outlet, tracked := c.floor.plug(n.MAC())
	if !tracked {
		c.trackNode(n)
	}
	c.PDU.Connect(outlet, n.MAC(), power.TargetFunc(func() {
		// A hard power cycle forces the node to reinstall itself (§4).
		c.boot(n, true, "node "+n.MAC()+" failed after power cycle")
	}))
	n.SetState(node.StateBooting)
	c.boot(n, false, "node "+n.MAC()+" failed to integrate")
}

// WaitState polls until the node reaches the state or the timeout expires.
func WaitState(n *node.Node, want node.State, timeout time.Duration) bool {
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if n.State() == want {
			return true
		}
		time.Sleep(2 * time.Millisecond)
	}
	return n.State() == want
}

// IntegrateNodes runs the full §6.4 integration for a batch of new
// machines: start insert-ethers, power the nodes on sequentially, and wait
// until each is installed and up. It returns the created nodes in order.
func (c *Cluster) IntegrateNodes(profiles []hardware.Profile, membership, rack int, timeout time.Duration) ([]*node.Node, error) {
	ie, err := c.StartInsertEthers(membership, rack)
	if err != nil {
		return nil, err
	}
	defer ie.Stop()
	// The batch hands control back to the administrator when it returns;
	// the reports on disk must reflect every node it integrated.
	defer c.FlushReports()
	nodes := make([]*node.Node, 0, len(profiles))
	for i, hw := range profiles {
		n := node.New(hw)
		nodes = append(nodes, n)
		c.PowerOn(n)
		// Sequential boot keeps rack/rank assignment in physical order
		// (§6.4's footnote: serial only so names map to locations).
		if !WaitState(n, node.StateUp, timeout) {
			return nodes, fmt.Errorf("core: node %d (%s) stuck in state %s", i, n.MAC(), n.State())
		}
	}
	return nodes, nil
}

// opIntegrate powers on `count` new simulated machines and integrates them
// (insert-ethers + sequential boot). Parameters: count, rack, membership,
// mhz, wait (seconds).
func (c *Cluster) opIntegrate(r *http.Request) (interface{}, *apiError) {
	count, aerr := formInt(r, "count", 1, 1)
	if aerr != nil {
		return nil, aerr
	}
	rack, aerr := formInt(r, "rack", 0, 0)
	if aerr != nil {
		return nil, aerr
	}
	membership, aerr := formInt(r, "membership", clusterdb.MembershipCompute, 0)
	if aerr != nil {
		return nil, aerr
	}
	mhz, aerr := formInt(r, "mhz", 733, 1)
	if aerr != nil {
		return nil, aerr
	}
	waitSec, aerr := formInt(r, "wait", 60, 0)
	if aerr != nil {
		return nil, aerr
	}
	wait := time.Duration(waitSec) * time.Second

	profiles := make([]hardware.Profile, count)
	for i := range profiles {
		profiles[i] = hardware.PIIICompute(c.macs, mhz)
	}
	nodes, err := c.IntegrateNodes(profiles, membership, rack, wait)
	if err != nil {
		return nil, apiErrorf(http.StatusInternalServerError, "integrate_failed", "%v", err)
	}
	var names []string
	for _, n := range nodes {
		names = append(names, n.Name())
	}
	return map[string]interface{}{"integrated": names}, nil
}

// shootWatched shoots the named nodes with the first one watched: watch is
// registered on it before the shot and runs with the eKV address on the
// installer's own goroutine, which goes on only once watch returns, so the
// screen is complete however short the installation. It waits for watch to
// return, at most timeout or until ctx or the cluster ends, and reports
// whether it did; a watcher that has not run by then is withdrawn, as it is
// when the shot fails.
func (c *Cluster) shootWatched(ctx context.Context, timeout time.Duration, watch func(addr string), names ...string) (bool, error) {
	n, tracked := c.floor.lookup(names[0])
	watched := make(chan struct{})
	if tracked {
		n.WatchEKV(func(addr string) {
			watch(addr)
			close(watched)
		})
	}
	if err := c.ShootNode(names...); err != nil {
		if tracked {
			n.WatchEKV(nil)
		}
		return false, err
	}
	if !tracked {
		return false, nil
	}
	deadline := time.NewTimer(timeout)
	defer deadline.Stop()
	select {
	case <-watched:
		return true, nil
	case <-deadline.C:
	case <-ctx.Done():
	case <-c.ctx.Done():
	}
	n.WatchEKV(nil)
	return false, nil
}

// ShootNodeWatch shoots one node and attaches to its eKV port, returning
// the attached client (the xterm shoot-node pops open). The caller closes
// the client.
func (c *Cluster) ShootNodeWatch(name string, timeout time.Duration) (*ekv.Client, error) {
	var client *ekv.Client
	var err error
	watched, shootErr := c.shootWatched(c.ctx, timeout, func(addr string) {
		if client, err = ekv.Attach(addr); err == nil {
			<-client.Receiving()
		}
	}, name)
	if shootErr != nil {
		return nil, shootErr
	}
	if !watched {
		return nil, fmt.Errorf("core: %s never exposed an eKV port", name)
	}
	return client, err
}

// CrashCart is the last resort of §4: "If the compute node is still
// unresponsive, physical intervention is required. For this case, we have a
// crash cart — a monitor and a keyboard." It returns the node's console
// view (state, install log tail) and, when repair is requested, clears the
// fault and boots the machine fresh.
func (c *Cluster) CrashCart(mac string, repair bool) (string, error) {
	n, ok := c.floor.machine(mac)
	if !ok {
		return "", fmt.Errorf("core: no machine with MAC %s on the floor", mac)
	}
	var b strings.Builder
	fmt.Fprintf(&b, "console %s (%s):\n", mac, n.State())
	log := n.InstallLog()
	if len(log) > 5 {
		log = log[len(log)-5:]
	}
	for _, line := range log {
		fmt.Fprintf(&b, "  %s\n", line)
	}
	if repair {
		fmt.Fprintf(&b, "repair: replacing hardware and reinstalling\n")
		c.boot(n, true, "crash-cart repair of "+mac+" failed")
	}
	return b.String(), nil
}

// NodeStatus is one machine as the floor sees it: the god's-eye view
// cluster-sim prints.
type NodeStatus struct {
	Name     string `json:"name"`
	MAC      string `json:"mac"`
	IP       string `json:"ip"`
	State    string `json:"state"`
	Kernel   string `json:"kernel,omitempty"`
	Packages int    `json:"packages"`
	Installs int    `json:"installs"`
	EKV      string `json:"ekv,omitempty"`
}

// Status snapshots every tracked node, sorted by name.
func (c *Cluster) Status() []NodeStatus {
	f := c.floor
	f.mu.Lock()
	nodes := make([]NodeStatus, 0, len(f.machines))
	for _, n := range f.machines {
		nodes = append(nodes, NodeStatus{
			Name:     n.Name(),
			MAC:      n.MAC(),
			IP:       n.IP(),
			State:    string(n.State()),
			Kernel:   n.KernelVersion(),
			Packages: n.PackageDB().Len(),
			Installs: n.Installs(),
			EKV:      n.EKVAddr(),
		})
	}
	f.mu.Unlock()
	sort.Slice(nodes, func(i, j int) bool { return nodes[i].Name < nodes[j].Name })
	return nodes
}

// StatusTable renders Status as aligned text for CLI display.
func (c *Cluster) StatusTable() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-14s %-18s %-16s %-11s %-10s %4s\n",
		"NAME", "MAC", "IP", "STATE", "KERNEL", "PKGS")
	for _, s := range c.Status() {
		fmt.Fprintf(&b, "%-14s %-18s %-16s %-11s %-10s %4d\n",
			s.Name, s.MAC, s.IP, s.State, s.Kernel, s.Packages)
	}
	return b.String()
}

// NodeByName returns the machine a hostname (or MAC) names, resolved through
// the database.
func (c *Cluster) NodeByName(name string) (*node.Node, bool) { return c.floor.lookup(name) }

// Nodes returns all tracked nodes keyed by MAC (a copy).
func (c *Cluster) Nodes() map[string]*node.Node {
	c.floor.mu.Lock()
	defer c.floor.mu.Unlock()
	return maps.Clone(c.floor.machines)
}

// trackNode puts a machine on the floor and installs its reboot hook.
func (c *Cluster) trackNode(n *node.Node) {
	c.floor.mu.Lock()
	c.floor.machines[n.MAC()] = n
	c.floor.mu.Unlock()
	n.OnReboot = func() {
		// The node rebooted (shoot-node, reinstall job, or plain reboot):
		// it leaves the batch pool immediately and comes back through the
		// boot path.
		name := n.Name()
		if name != "" {
			c.PBS.UnregisterMom(name)
		}
		c.boot(n, false, "node "+name+" failed to boot")
	}
}

// boot takes a node through one power-on in the background, under the root
// scope, and logs a failure as "<failed>: <error>". A hard cycle (the PDU's,
// the crash cart's repair) first powers the machine off and forces a
// reinstall (§4); its goroutine marks the node booting as it starts.
func (c *Cluster) boot(n *node.Node, cycle bool, failed string) {
	if cycle {
		n.PowerOff()
		n.ForceReinstall()
	}
	c.spawn(func() {
		if cycle {
			n.SetState(node.StateBooting)
		}
		if err := c.bootOnce(c.ctx, n); err != nil {
			c.Syslog.Log("frontend-0", "rocks", "%s: %v", failed, err)
		}
	})
}

// installerConfig builds the per-node install configuration. Every install
// fetches over the private network's client; under fault injection each
// node gets its own client whose transport knows the node's identities (MAC
// always, name and IP once assigned — a node learns its hostname
// mid-install, so identities are late-bound) and wraps the private one.
func (c *Cluster) installerConfig(n *node.Node) installer.Config {
	cfg := installer.Config{
		HTTP:         c.private,
		Bus:          c.Bus,
		DHCPRetry:    c.cfg.DHCPRetry,
		DHCPTimeout:  c.cfg.DHCPTimeout,
		DisableEKV:   c.cfg.DisableEKV,
		FetchRetries: 2,
		FetchBackoff: c.cfg.InstallRetryBackoff,
		Events:       c.events,
		Stats:        &c.installStats,
		Held:         c.floor.held,
	}
	if c.cfg.EnableRelays && n != c.Frontend {
		// Each install accumulates its verified packages in a fresh store;
		// bootOnce promotes it to a serving relay when the install returns.
		store := rpm.NewRepository(n.MAC() + "-relay")
		c.relays.expect(n.MAC(), store)
		cfg.RelayStore = store
	}
	if n != c.Frontend {
		// The first-boot facts agent: after install-complete the node
		// probes its hardware and reports to the frontend, which diffs the
		// report against the machine's catalogue spec (floor.spec) — the
		// database holds only a node's arch and CPU count, not its memory,
		// disk or NICs. The frontend itself does not report — it is the
		// diffing side.
		cfg.FrontendURL = c.baseURL
	}
	if c.cfg.Faults != nil && n != c.Frontend {
		identities := func() []string { return []string{n.MAC(), n.Name(), n.IP()} }
		cfg.HTTP = &http.Client{
			Timeout:   c.private.Timeout,
			Transport: faults.NewTransport(c.cfg.Faults, c.private.Transport, identities),
		}
		cfg.FaultHook = faults.InstallHook(c.cfg.Faults, identities)
		cfg.FactsHook = faults.FactsHook(c.cfg.Faults, identities)
	}
	return cfg
}

// bootOnce takes a node through one power-on: install if needed, then come
// up and join the cluster's services. The context bounds the whole boot —
// cancelling it (Cluster.Close) aborts an in-flight install promptly.
func (c *Cluster) bootOnce(ctx context.Context, n *node.Node) error {
	if n.NeedsInstall() {
		if _, err := installer.Run(ctx, n, c.installerConfig(n)); err != nil {
			return err
		}
		c.relays.promote(n.MAC(), n.Name())
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	return c.comeUp(n)
}

// comeUp transitions an installed node to Up: bind NIS, mount home over
// NFS, and register the PBS mom (compute nodes). The state change comes
// last, just before the up event, so whoever sees a node up sees it
// registered with PBS and scheduled.
func (c *Cluster) comeUp(n *node.Node) error {
	name := n.Name()
	if name == "" {
		return fmt.Errorf("core: node %s has no hostname after boot", n.MAC())
	}

	// ypbind: pull the account map and materialize /etc/passwd.nis.
	b := nis.Bind(c.NIS)
	if m, _ := b.Refresh(); m != "" {
		n.Disk().WriteFile("/etc/passwd.nis", []byte(m), 0o644)
	}
	// mount home (compute nodes only; the frontend *is* the server).
	if n != c.Frontend {
		if _, err := c.NFS.Mount("/export/home", "/home", name); err != nil {
			c.Syslog.Log(name, "mount", "NFS mount failed: %v", err)
		}
	}
	// pbs-mom registers with the server and a scheduling pass runs.
	if _, ok := n.PackageDB().Query("pbs-mom"); ok {
		c.PBS.RegisterMom(name, n)
		c.PBS.Schedule()
	}
	c.Syslog.Log(name, "rocks", "node up (kernel %s, %d packages)",
		n.KernelVersion(), n.PackageDB().Len())
	n.SetState(node.StateUp)
	c.events.Publish(lifecycle.Event{
		Node:   name,
		MAC:    n.MAC(),
		Phase:  lifecycle.PhaseRun,
		Type:   lifecycle.EventUp,
		Source: "cluster",
		Detail: fmt.Sprintf("kernel %s, %d packages", n.KernelVersion(), n.PackageDB().Len()),
	})
	return nil
}
