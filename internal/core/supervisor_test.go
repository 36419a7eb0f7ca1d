package core

import (
	"context"
	"errors"
	"net/http"
	"strings"
	"testing"
	"time"

	"rocks/internal/lifecycle"
	"rocks/internal/node"
	"rocks/internal/pbs"
)

// tightSupervisor is a supervisor config scaled to test time: installs in
// this simulation finish in tens of milliseconds, so patience and backoff
// shrink accordingly.
func tightSupervisor(seed int64) SupervisorConfig {
	return SupervisorConfig{
		Patience:    75 * time.Millisecond,
		Interval:    10 * time.Millisecond,
		MaxRetries:  2,
		BaseBackoff: 25 * time.Millisecond,
		MaxBackoff:  200 * time.Millisecond,
		Seed:        seed,
	}
}

// breakDist removes a kickstart-critical package from the distribution so
// every subsequent install crashes; the returned function restores it.
func breakDist(c *Cluster) (restore func()) {
	removed := c.Dist.Repo.Versions("sed")
	for _, p := range removed {
		c.Dist.Repo.Remove(p.NVRA())
	}
	return func() {
		for _, p := range removed {
			c.Dist.Repo.Add(p)
		}
	}
}

// TestSupervisorRevivesCrashedNode: a node's install crashes; the supervisor
// power-cycles it without any human in the loop and logs the recovery.
func TestSupervisorRevivesCrashedNode(t *testing.T) {
	c := newCluster(t)
	nodes := addComputes(t, c, 1)
	n := nodes[0]

	restore := breakDist(c)
	c.ShootNode("compute-0-0")
	if !WaitState(n, node.StateCrashed, integrationTimeout) {
		t.Fatalf("state = %s", n.State())
	}
	restore() // the fault was transient: the repo is whole again

	s := c.StartSupervisor(tightSupervisor(1))
	defer s.Stop()
	if !WaitState(n, node.StateUp, integrationTimeout) {
		t.Fatalf("supervisor never revived the node; state = %s\nevents:\n%s",
			n.State(), s.EventLog())
	}
	// The bus accounts for the remediation: wait on the recovery event
	// (WaitFor sees events already in the ring, so no publish is missed),
	// then audit the per-node log — at least one cycle, no quarantine.
	ctx, cancelWait := context.WithTimeout(context.Background(), integrationTimeout)
	defer cancelWait()
	if _, err := c.Events().WaitFor(ctx, lifecycle.Filter{
		Node: "compute-0-0", Type: EventRecovered, Source: "supervisor",
	}); err != nil {
		t.Fatalf("no recovered event: %v\nevents:\n%s", err, s.EventLog())
	}
	var cycled bool
	for _, e := range s.EventsFor("compute-0-0") {
		switch e.Type {
		case EventPowerCycle:
			cycled = true
		case EventQuarantine:
			t.Fatalf("healthy retry quarantined:\n%s", s.EventLog())
		}
	}
	if !cycled {
		t.Fatalf("recovered without a power cycle:\n%s", s.EventLog())
	}
	if c.IsQuarantined("compute-0-0") {
		t.Error("recovered node left quarantined")
	}
}

// TestSupervisorQuarantinesHopelessNode: a node that crashes on every
// reinstall exhausts its retry budget and ends quarantined — offline in PBS,
// marked in the nodes report — instead of being cycled forever.
func TestSupervisorQuarantinesHopelessNode(t *testing.T) {
	c := newCluster(t)
	nodes := addComputes(t, c, 2)
	n := nodes[0]

	restore := breakDist(c) // never restored before quarantine: a true lemon
	c.ShootNode("compute-0-0")
	if !WaitState(n, node.StateCrashed, integrationTimeout) {
		t.Fatalf("state = %s", n.State())
	}

	s := c.StartSupervisor(tightSupervisor(2))
	defer s.Stop()
	ctx, cancelWait := context.WithTimeout(context.Background(), integrationTimeout)
	defer cancelWait()
	if _, err := c.Events().WaitFor(ctx, lifecycle.Filter{
		Node: "compute-0-0", Type: EventQuarantine,
	}); err != nil {
		t.Fatalf("node never quarantined: %v; state=%s events:\n%s", err, n.State(), s.EventLog())
	}
	// The event is published after Quarantine takes effect, so the node is
	// already offline when the waiter wakes.
	if !c.IsQuarantined("compute-0-0") {
		t.Fatal("quarantine event published before the node went offline")
	}

	// Budget arithmetic: exactly MaxRetries cycles, then quarantine.
	var cycles, quarantines int
	for _, e := range s.EventsFor("compute-0-0") {
		switch e.Type {
		case EventPowerCycle, EventPowerCycleFailed:
			cycles++
		case EventQuarantine:
			quarantines++
		}
	}
	if cycles != 2 || quarantines != 1 {
		t.Errorf("cycles=%d quarantines=%d, want 2 and 1:\n%s", cycles, quarantines, s.EventLog())
	}

	// The scheduler no longer touches the node; the healthy one still works.
	if !c.PBS.IsOffline("compute-0-0") {
		t.Error("quarantined node not offline in PBS")
	}
	id := c.PBS.Submit(pbs.Job{Name: "probe", NodeCount: 1, Command: "hostname"})
	c.PBS.Schedule()
	if j, _ := c.PBS.Job(id); j.State != pbs.StateComplete || j.Assigned[0] != "compute-0-1" {
		t.Errorf("probe job = %+v; want complete on compute-0-1", j)
	}

	// The report file carries the pbsnodes offline mark.
	report, err := c.Frontend.Disk().ReadFile("/opt/pbs/server_priv/nodes")
	if err != nil {
		t.Fatal(err)
	}
	var marked bool
	for _, line := range strings.Split(string(report), "\n") {
		if strings.HasPrefix(line, "compute-0-0") {
			marked = strings.HasSuffix(line, " offline")
		}
	}
	if !marked {
		t.Errorf("nodes report missing offline mark:\n%s", report)
	}

	// Repair and return to service: unquarantine + power cycle brings the
	// node back into the pool.
	restore()
	if err := c.Unquarantine("compute-0-0"); err != nil {
		t.Fatal(err)
	}
	outlet, _ := c.PDU.OutletFor(n.MAC())
	if err := c.PDU.HardCycle(outlet); err != nil {
		t.Fatal(err)
	}
	if !WaitState(n, node.StateUp, integrationTimeout) {
		t.Fatalf("repaired node state = %s", n.State())
	}
	report, _ = c.Frontend.Disk().ReadFile("/opt/pbs/server_priv/nodes")
	if strings.Contains(string(report), "offline") {
		t.Errorf("offline mark survived unquarantine:\n%s", report)
	}
}

// TestReinstallClusterTimeoutNamesStuck: when reinstall-cluster gives up,
// the error names which nodes and jobs were stuck (satellite of ISSUE 1),
// not just a count.
func TestReinstallClusterTimeoutNamesStuck(t *testing.T) {
	c := newCluster(t)
	nodes := addComputes(t, c, 2)

	// A long-running application occupies compute-0-1: its reinstall job
	// can never start inside the timeout.
	hold := c.PBS.Submit(pbs.Job{
		Name: "simulation", NodeCount: 1, Hold: true, Assigned: []string{"compute-0-1"},
	})
	if c.PBS.Schedule() != 1 {
		t.Fatal("hold job did not start")
	}

	err := c.ReinstallCluster(250 * time.Millisecond)
	if err == nil {
		t.Fatal("reinstall against a busy node should time out")
	}
	var te *ReinstallTimeoutError
	if !errors.As(err, &te) {
		t.Fatalf("error type %T: %v", err, err)
	}
	if hosts := te.StuckHosts(); len(hosts) != 1 || hosts[0] != "compute-0-1" {
		t.Errorf("stuck hosts = %v", hosts)
	}
	if !strings.Contains(err.Error(), "compute-0-1") {
		t.Errorf("error does not name the stuck node: %v", err)
	}
	// compute-0-0 was free: its job must have completed despite the timeout.
	if !WaitState(nodes[0], node.StateUp, integrationTimeout) {
		t.Fatalf("compute-0-0 state = %s", nodes[0].State())
	}

	// Drain the stuck job so shutdown is clean: finish the application and
	// let the queued reinstall run.
	if err := c.PBS.Finish(hold); err != nil {
		t.Fatal(err)
	}
	c.PBS.Schedule()
	if !WaitState(nodes[1], node.StateUp, integrationTimeout) {
		t.Fatalf("compute-0-1 state = %s after drain", nodes[1].State())
	}
}

// TestSupervisorAdminEndpoint: the control plane exposes the supervisor's
// event log and quarantine list to the CLI tools.
func TestSupervisorAdminEndpoint(t *testing.T) {
	c := newCluster(t)
	addComputes(t, c, 1)
	if err := c.Quarantine("compute-0-0"); err != nil {
		t.Fatal(err)
	}
	s := c.StartSupervisor(tightSupervisor(3))
	defer s.Stop()

	var resp struct {
		Running     bool              `json:"running"`
		Events      []SupervisorEvent `json:"events"`
		Dropped     *uint64           `json:"dropped"`
		Quarantined []string          `json:"quarantined"`
	}
	code, body, _ := v1Call(t, c, http.MethodGet, "/v1/supervisor", nil)
	if code != 200 {
		t.Fatalf("supervisor endpoint: %d %q", code, body)
	}
	dataOf(t, body, &resp)
	if !resp.Running {
		t.Error("supervisor not reported running")
	}
	if len(resp.Quarantined) != 1 || resp.Quarantined[0] != "compute-0-0" {
		t.Errorf("quarantined = %v", resp.Quarantined)
	}
	// The event log is ring-backed now: the endpoint must report how many
	// events have been evicted (zero here — nothing has wrapped).
	if resp.Dropped == nil {
		t.Error("supervisor endpoint missing dropped count")
	} else if *resp.Dropped != 0 {
		t.Errorf("dropped = %d, want 0", *resp.Dropped)
	}
}
