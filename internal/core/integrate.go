package core

import (
	"errors"
	"fmt"
	"strings"
	"time"

	"rocks/internal/clusterdb"
	"rocks/internal/ctools"
	"rocks/internal/ekv"
	"rocks/internal/hardware"
	"rocks/internal/insertethers"
	"rocks/internal/node"
	"rocks/internal/power"
)

// StartInsertEthers begins a discovery session for the given membership and
// rack. Nodes powered on while the session runs are named, addressed,
// inserted into the database, and handed DHCP bindings; reports regenerate
// after each insertion.
func (c *Cluster) StartInsertEthers(membership, rack int) (*insertethers.InsertEthers, error) {
	return insertethers.Start(insertethers.Config{
		DB:         c.DB,
		Syslog:     c.Syslog,
		DHCP:       c.DHCPd,
		NextServer: c.baseURL,
		Membership: membership,
		Rack:       rack,
		Events:     c.events,
		OnInsert: func(n clusterdb.Node) {
			// The insert already applied its own DHCP binding delta; the
			// full dbreport pass coalesces across the discovery burst.
			c.ScheduleReports()
		},
	})
}

// PowerOn starts a node's boot lifecycle in the background and wires it to
// the cluster (reboot hook, PDU outlet). The node installs itself if its
// disk is blank or a reinstall was forced.
func (c *Cluster) PowerOn(n *node.Node) {
	outlet, tracked := c.dir.plug(n.MAC())
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

// ShootNode commands nodes to reinstall themselves over Ethernet and
// returns immediately; the nodes transition installing → up in the
// background (§6.3). Unreachable nodes produce errors — the administrator
// then reaches for PDU.HardCycle.
// ErrUnknownNode marks operations naming a host the cluster does not
// track; the control plane maps it to a 404.
var ErrUnknownNode = errors.New("unknown node")

func (c *Cluster) ShootNode(names ...string) error {
	for _, name := range names {
		n, ok := c.NodeByName(name)
		if !ok {
			return fmt.Errorf("core: no node named %q: %w", name, ErrUnknownNode)
		}
		if _, err := n.Exec("/boot/kickstart/cluster-kickstart"); err != nil {
			return fmt.Errorf("core: shoot-node %s: %w (try the PDU)", name, err)
		}
	}
	return nil
}

// ShootNodeWatch shoots one node and attaches to its eKV port, returning
// the attached client (the xterm shoot-node pops open). The caller closes
// the client. The watcher is registered before the node is shot and attaches
// on the installer's own goroutine, which goes on only once the eKV server
// has the client: the screen is complete however short the installation.
func (c *Cluster) ShootNodeWatch(name string, timeout time.Duration) (*ekv.Client, error) {
	n, ok := c.NodeByName(name)
	if !ok {
		return nil, fmt.Errorf("core: no node named %q", name)
	}
	var client *ekv.Client
	var err error
	attached := make(chan struct{})
	n.WatchEKV(func(addr string) {
		if client, err = ekv.Attach(addr); err == nil {
			<-client.Receiving()
		}
		close(attached)
	})
	if err := c.ShootNode(name); err != nil {
		n.WatchEKV(nil)
		return nil, err
	}
	deadline := time.NewTimer(timeout)
	defer deadline.Stop()
	select {
	case <-attached:
		return client, err
	case <-deadline.C:
		n.WatchEKV(nil)
		return nil, fmt.Errorf("core: %s never exposed an eKV port", name)
	}
}

// StuckJob identifies one reinstall job that had not finished when
// ReinstallCluster gave up, and the host it was pinned to.
type StuckJob struct {
	JobID int
	Host  string
	State string // PBS job state at timeout ("Q" or "R")
}

// ReinstallTimeoutError is returned when ReinstallCluster's deadline passes
// with jobs outstanding. It names the stuck hosts so the administrator (or
// the supervisor) knows exactly which machines to chase instead of just
// how many.
type ReinstallTimeoutError struct {
	Stuck []StuckJob
}

// Error lists every stuck host and its job.
func (e *ReinstallTimeoutError) Error() string {
	parts := make([]string, len(e.Stuck))
	for i, s := range e.Stuck {
		parts[i] = fmt.Sprintf("%s (job %d, state %s)", s.Host, s.JobID, s.State)
	}
	return fmt.Sprintf("core: reinstall cluster: %d jobs still pending: %s",
		len(e.Stuck), strings.Join(parts, ", "))
}

// StuckHosts returns just the hostnames, in job order.
func (e *ReinstallTimeoutError) StuckHosts() []string {
	out := make([]string, len(e.Stuck))
	for i, s := range e.Stuck {
		out[i] = s.Host
	}
	return out
}

// ReinstallCluster submits per-node reinstall jobs through PBS/Maui so
// running applications drain first (§5), then runs scheduling passes until
// every job has completed or failed, or the timeout expires. On timeout the
// error is a *ReinstallTimeoutError naming each stuck node and job.
func (c *Cluster) ReinstallCluster(timeout time.Duration) error {
	ids := c.PBS.SubmitReinstallCluster()
	deadline := time.Now().Add(timeout)
	for {
		c.PBS.Schedule()
		var stuck []StuckJob
		for _, id := range ids {
			if j, ok := c.PBS.Job(id); ok && (j.State == "Q" || j.State == "R") {
				host := strings.TrimPrefix(j.Name, "reinstall-")
				if len(j.Assigned) > 0 {
					host = j.Assigned[0]
				}
				stuck = append(stuck, StuckJob{JobID: id, Host: host, State: string(j.State)})
			}
		}
		if len(stuck) == 0 {
			return nil
		}
		if time.Now().After(deadline) {
			return &ReinstallTimeoutError{Stuck: stuck}
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// Fork is cluster-fork: run a command on the nodes selected by an SQL query
// (the default query selects all compute nodes).
func (c *Cluster) Fork(query, cmd string) ([]ctools.HostResult, error) {
	return ctools.Fork(c.DB, c.dir.executor, query, cmd)
}

// Kill is cluster-kill: terminate a named process on the selected nodes.
func (c *Cluster) Kill(query, process string) ([]ctools.HostResult, int, error) {
	return ctools.Kill(c.DB, c.dir.executor, query, process)
}

// ConsistencyReport diffs every up compute node's package manifest against
// the first one, answering §3.2's "what version of software X do I have on
// node Y?" for the whole cluster at once. It returns the hosts whose
// manifests differ.
func (c *Cluster) ConsistencyReport() (reference string, divergent []string, err error) {
	names, err := clusterdb.ComputeNodeNames(c.DB)
	if err != nil {
		return "", nil, err
	}
	var refManifest string
	for _, name := range names {
		n, ok := c.NodeByName(name)
		if !ok || n.State() != node.StateUp {
			continue
		}
		m := n.PackageDB().Manifest()
		if refManifest == "" {
			reference, refManifest = name, m
			continue
		}
		if m != refManifest {
			divergent = append(divergent, name)
		}
	}
	return reference, divergent, nil
}

// CrashCart is the last resort of §4: "If the compute node is still
// unresponsive, physical intervention is required. For this case, we have a
// crash cart — a monitor and a keyboard." It returns the node's console
// view (state, install log tail) and, when repair is requested, clears the
// fault and boots the machine fresh.
func (c *Cluster) CrashCart(mac string, repair bool) (string, error) {
	n, ok := c.dir.machine(mac)
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

// Decommission removes a node from the cluster: the database row goes, the
// DHCP binding disappears with the next report pass, PBS loses the mom, the
// PDU outlet is freed, and the machine is powered off. The physical box can
// leave the rack.
func (c *Cluster) Decommission(name string) error {
	n, ok := c.NodeByName(name)
	if !ok {
		return fmt.Errorf("core: no node named %q", name)
	}
	c.PBS.UnregisterMom(name)
	// The relay goes first, so the registry never offers a powered-off
	// machine as a source.
	c.relays.withdraw(name, "decommissioned")
	if outlet, wired := c.PDU.OutletFor(n.MAC()); wired {
		c.PDU.Disconnect(outlet)
	}
	n.PowerOff()
	if err := clusterdb.DeleteNode(c.DB, name); err != nil {
		return err
	}
	if err := c.facts.forget(n.MAC()); err != nil {
		return err
	}
	c.dir.forget(name, n.MAC())
	c.Syslog.Log("frontend-0", "rocks", "decommissioned %s (%s)", name, n.MAC())
	return c.WriteReports()
}
