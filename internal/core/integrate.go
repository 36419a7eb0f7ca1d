package core

import (
	"errors"
	"fmt"
	"strings"
	"time"

	"rocks/internal/clusterdb"
	"rocks/internal/ctools"
	"rocks/internal/insertethers"
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

// ErrUnknownNode marks operations naming a host the database does not
// name; the control plane maps it to a 404.
var ErrUnknownNode = errors.New("unknown node")

// ShootNode commands nodes to reinstall themselves over Ethernet and
// returns immediately; the nodes transition installing → up in the
// background (§6.3). Unreachable nodes produce errors — the administrator
// then reaches for PDU.HardCycle.
func (c *Cluster) ShootNode(names ...string) error {
	for _, name := range names {
		n, ok := c.floor.executor(name)
		if !ok {
			return fmt.Errorf("core: no node named %q: %w", name, ErrUnknownNode)
		}
		if _, err := n.Exec("/boot/kickstart/cluster-kickstart"); err != nil {
			return fmt.Errorf("core: shoot-node %s: %w (try the PDU)", name, err)
		}
	}
	return nil
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
	return ctools.Fork(c.DB, c.floor.executor, query, cmd)
}

// Kill is cluster-kill: terminate a named process on the selected nodes.
func (c *Cluster) Kill(query, process string) ([]ctools.HostResult, int, error) {
	return ctools.Kill(c.DB, c.floor.executor, query, process)
}

// ConsistencyReport diffs every up compute node's package manifest against
// the first one, answering §3.2's "what version of software X do I have on
// node Y?" for the whole cluster at once with §3.2's own tool:
// cluster-fork rpm -qa. It returns the hosts whose manifests differ.
func (c *Cluster) ConsistencyReport() (reference string, divergent []string, err error) {
	results, err := c.Fork("", "rpm -qa")
	if err != nil {
		return "", nil, err
	}
	var refManifest string
	for _, r := range results {
		if r.Err != nil {
			continue // down: not part of the comparison
		}
		if reference == "" {
			reference, refManifest = r.Host, r.Output
			continue
		}
		if r.Output != refManifest {
			divergent = append(divergent, r.Host)
		}
	}
	return reference, divergent, nil
}

// Decommission removes a node from the cluster: the database row goes, the
// DHCP binding disappears with the next report pass, PBS loses the mom, the
// PDU outlet is freed, and the machine is powered off. The physical box can
// leave the rack.
func (c *Cluster) Decommission(name string) error {
	row, ok, err := clusterdb.NodeByName(c.DB, name)
	if err != nil {
		return err
	}
	if !ok {
		return fmt.Errorf("core: no node named %q", name)
	}
	c.PBS.UnregisterMom(name)
	// The relay goes first, so the registry never offers a powered-off
	// machine as a source.
	c.relays.withdraw(name, "decommissioned")
	if outlet, wired := c.PDU.OutletFor(row.MAC); wired {
		c.PDU.Disconnect(outlet)
	}
	c.floor.retire(row.MAC)
	if err := clusterdb.DeleteNode(c.DB, name); err != nil {
		return err
	}
	if err := c.facts.forget(row.MAC); err != nil {
		return err
	}
	c.Syslog.Log("frontend-0", "rocks", "decommissioned %s (%s)", name, row.MAC)
	return c.WriteReports()
}
