package core

import (
	"context"
	"strings"
	"sync"
	"testing"
	"time"

	"rocks/internal/clusterdb"
	"rocks/internal/faults"
	"rocks/internal/hardware"
	"rocks/internal/lifecycle"
	"rocks/internal/node"
)

// TestChaosStormSelfHeals is the ISSUE 1 acceptance scenario: a 17-machine
// delivery is integrated under a seeded fault storm — DHCP offers dropped,
// package fetches answered with 500s, a PDU relay that ignores its first
// cycle command, installs wedged mid-partition — with zero manual
// intervention. The installer's bounded retries absorb what they can; the
// supervisor power-cycles what they can't; and the one genuinely bad
// machine (which wedges on every install) exhausts its retry budget and is
// quarantined — offline in PBS — rather than failing the run. Sixteen nodes
// reach fully-installed; the supervisor's event log and the injector's
// ledger reconcile exactly.
func TestChaosStormSelfHeals(t *testing.T) {
	if testing.Short() {
		t.Skip("17-node live chaos integration")
	}
	inj := faults.NewInjector(42)
	c, err := New(Config{
		Name:                "chaos",
		DHCPRetry:           2 * time.Millisecond,
		DisableEKV:          true,
		Faults:              inj,
		InstallRetryBackoff: 2 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	ie, err := c.StartInsertEthers(clusterdb.MembershipCompute, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer ie.Stop()

	const total = 17
	nodes := make([]*node.Node, total)
	for i := range nodes {
		nodes[i] = node.New(hardware.PIIICompute(c.MACs(), 733))
	}
	// Target the storm by MAC: under concurrent discovery, hostnames are
	// assigned in arrival order, so MACs are the only stable handles.
	dhcpVictim := nodes[0] // two OFFERs vanish; the discover loop absorbs them
	absorbed := nodes[1]   // two 500s — within the installer's retry budget
	crasher := nodes[2]    // three 500s — exhausts the budget, crashes, is revived
	flakyPower := nodes[3] // wedges once AND its PDU relay ignores one cycle
	lemon := nodes[4]      // wedges on every install: the quarantine case
	inj.AddRule(faults.Rule{Op: faults.OpDHCPOffer, Hosts: dhcpVictim.MAC(), Count: 2})
	inj.AddRule(faults.Rule{Op: faults.OpHTTPPackage, Hosts: absorbed.MAC(), Count: 2, Mode: faults.ModeError500})
	// An install's one request on the package seam is its stream, and a
	// stream refused before it delivers anything spends its first package's
	// budget, so three consecutive 500s exhaust the 3-attempt budget.
	inj.AddRule(faults.Rule{Op: faults.OpHTTPPackage, Hosts: crasher.MAC(), Count: 3, Mode: faults.ModeError500})
	inj.AddRule(faults.Rule{Op: faults.OpInstallWedge, Hosts: flakyPower.MAC(), Count: 1})
	inj.AddRule(faults.Rule{Op: faults.OpPowerCycle, Hosts: flakyPower.MAC(), Count: 1})
	// The lemon wedges its initial install plus every supervised retry:
	// 1 + MaxRetries wedges, then the budget is gone.
	inj.AddRule(faults.Rule{Op: faults.OpInstallWedge, Hosts: lemon.MAC(), Count: 4})
	// Background noise over everyone: a sprinkle of latency (added last so
	// the targeted rules above match first). An install puts one request on
	// the package seam, its stream, so the sixteen that finish offer this
	// rule at least sixteen draws; it needs six, which at 0.75 a draw all but
	// three runs in ten thousand get.
	inj.AddRule(faults.Rule{
		Op: faults.OpHTTPPackage, Hosts: "*", Prob: 0.75, Count: 6,
		Mode: faults.ModeLatency, Latency: time.Millisecond,
	})

	sup := c.StartSupervisor(SupervisorConfig{
		Patience:    150 * time.Millisecond,
		Interval:    10 * time.Millisecond,
		MaxRetries:  3,
		BaseBackoff: 30 * time.Millisecond,
		MaxBackoff:  300 * time.Millisecond,
		Seed:        7,
	})
	defer sup.Stop()

	var wg sync.WaitGroup
	for i := range nodes {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			c.PowerOn(nodes[i])
		}(i)
	}
	wg.Wait()

	// Zero manual intervention from here: the lemon must end quarantined
	// and the healthy sixteen must reach up, all on the supervisor's own.
	// The quarantine is observed as a bus event (published after the node
	// went offline), not by polling cluster state.
	waitCtx, cancelWait := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancelWait()
	if _, err := c.Events().WaitFor(waitCtx, lifecycle.Filter{
		MAC: lemon.MAC(), Type: lifecycle.EventQuarantine,
	}); err != nil {
		t.Fatalf("lemon never quarantined: %v\nevents:\n%s", err, sup.EventLog())
	}
	for i, n := range nodes {
		if n == lemon {
			continue
		}
		if !WaitState(n, node.StateUp, 2*time.Minute) {
			t.Fatalf("node %d (%s) stuck in state %s\nevents:\n%s",
				i, n.MAC(), n.State(), sup.EventLog())
		}
	}

	// The quarantined machine is out of the batch pool but still on the
	// books: offline in PBS, marked in the nodes report, row intact.
	lemonName := lemon.Name()
	if !c.PBS.IsOffline(lemonName) {
		t.Errorf("%s not offline in PBS", lemonName)
	}
	if got := len(c.PBS.Moms()); got != total-1 {
		t.Errorf("moms = %d, want %d", got, total-1)
	}
	report, err := c.Frontend.Disk().ReadFile("/opt/pbs/server_priv/nodes")
	if err != nil {
		t.Fatal(err)
	}
	var marked bool
	for _, line := range strings.Split(string(report), "\n") {
		if strings.HasPrefix(line, lemonName+" ") || line == lemonName {
			marked = strings.HasSuffix(line, " offline")
		}
	}
	if !marked {
		t.Errorf("nodes report missing offline mark for %s:\n%s", lemonName, report)
	}

	// The storm actually happened, and dried up: every count-capped rule
	// was fully consumed.
	if n := inj.CountOp(faults.OpDHCPOffer); n != 2 {
		t.Errorf("DHCP drops = %d, want 2", n)
	}
	errors500 := 0
	for _, rec := range inj.Injected() {
		if rec.Op == faults.OpHTTPPackage && rec.Mode == faults.ModeError500 {
			errors500++
		}
	}
	if errors500 != 5 {
		t.Errorf("HTTP 500 injections = %d, want 5 (2 absorbed + 3 crasher)", errors500)
	}
	if n := inj.CountOp(faults.OpInstallWedge); n != 5 {
		t.Errorf("wedge injections = %d, want 5 (1 flaky + 4 lemon)", n)
	}
	if n := inj.CountOp(faults.OpPowerCycle); n != 1 {
		t.Errorf("power-cycle injections = %d, want 1", n)
	}
	if !inj.Exhausted() {
		t.Error("storm never dried up: count-capped rules left unconsumed")
	}

	// The nodes are up, but the supervisor notices a recovery on its next
	// probe tick — wait for both recovery events on the bus before
	// auditing the log.
	for _, mac := range []string{crasher.MAC(), flakyPower.MAC()} {
		if _, err := c.Events().WaitFor(waitCtx, lifecycle.Filter{
			MAC: mac, Type: lifecycle.EventRecovered,
		}); err != nil {
			t.Fatalf("no recovered event for %s: %v\nevents:\n%s", mac, err, sup.EventLog())
		}
	}

	// Event-log accounting: every supervisor action traces to one of the
	// three deliberately broken machines, every injected power fault shows
	// up as a failed cycle, the lemon burned exactly its budget, and both
	// recoverable machines were logged recovered.
	victims := map[string]bool{crasher.MAC(): true, flakyPower.MAC(): true, lemon.MAC(): true}
	perMAC := map[string]map[lifecycle.EventType]int{}
	for _, e := range sup.Events() {
		if !victims[e.MAC] {
			t.Errorf("supervisor touched a healthy node: %s", e)
			continue
		}
		if perMAC[e.MAC] == nil {
			perMAC[e.MAC] = map[lifecycle.EventType]int{}
		}
		perMAC[e.MAC][e.Type]++
	}
	if n := perMAC[flakyPower.MAC()][lifecycle.EventPowerCycleFailed]; n != 1 {
		t.Errorf("failed cycles on flaky-power node = %d, want 1 (one injected veto)", n)
	}
	if perMAC[crasher.MAC()][lifecycle.EventPowerCycle] < 1 || perMAC[crasher.MAC()][lifecycle.EventRecovered] != 1 {
		t.Errorf("crasher events = %v, want ≥1 power-cycle and exactly 1 recovered", perMAC[crasher.MAC()])
	}
	if perMAC[flakyPower.MAC()][lifecycle.EventPowerCycle] < 1 || perMAC[flakyPower.MAC()][lifecycle.EventRecovered] != 1 {
		t.Errorf("flaky-power events = %v", perMAC[flakyPower.MAC()])
	}
	lemonEvents := perMAC[lemon.MAC()]
	if lemonEvents[lifecycle.EventPowerCycle] != 3 || lemonEvents[lifecycle.EventQuarantine] != 1 || lemonEvents[lifecycle.EventRecovered] != 0 {
		t.Errorf("lemon events = %v, want exactly 3 cycles and 1 quarantine", lemonEvents)
	}

	// Finally: the surviving cluster is a real cluster — consistent
	// manifests, a full batch pool, jobs schedulable.
	_, divergent, err := c.ConsistencyReport()
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range divergent {
		if d != lemonName {
			t.Errorf("node %s divergent after storm", d)
		}
	}
	if free := c.PBS.FreeNodes(); free != total-1 {
		t.Errorf("free nodes = %d, want %d", free, total-1)
	}
}
