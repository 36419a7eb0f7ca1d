package core

import (
	"net/http"
	"testing"
	"time"

	"rocks/internal/clusterdb"
	"rocks/internal/faults"
	"rocks/internal/hardware"
	"rocks/internal/node"
)

// TestNamedBeforeLeaseAnswersByHostname: insert-ethers names a node from its
// first DHCPDISCOVER, before any lease. With every offer to it dropped the
// machine never learns its name, yet ping and /v1/health answer for it by
// that hostname with its state: a name resolves through the database, not
// through the machine.
func TestNamedBeforeLeaseAnswersByHostname(t *testing.T) {
	inj := faults.NewInjector(1)
	c, err := New(Config{Name: "Meteor", DHCPRetry: 2 * time.Millisecond, Faults: inj})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	ie, err := c.StartInsertEthers(clusterdb.MembershipCompute, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer ie.Stop()
	n := node.New(hardware.PIIICompute(c.MACs(), 733))
	inj.AddRule(faults.Rule{Op: faults.OpDHCPOffer, Hosts: n.MAC()})
	c.PowerOn(n)
	for deadline := time.Now().Add(integrationTimeout); inj.CountOp(faults.OpDHCPOffer) == 0; time.Sleep(2 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("no offer to the node was dropped")
		}
	}
	if row, ok, _ := clusterdb.NodeByMAC(c.DB, n.MAC()); !ok || row.Name != "compute-0-0" {
		t.Fatalf("insert-ethers named the node %q (%v)", row.Name, ok)
	}
	if name := n.Name(); name != "" {
		t.Fatalf("the machine learned its name %q through a dropped offer", name)
	}

	// The installer runs from power-on and retries DHCP until its 30 s
	// timeout: the node is installing, and reachable, throughout.
	if alive, state := c.floor.ping("compute-0-0"); !alive || state != hostInstalling {
		t.Errorf("ping(compute-0-0) = %v, %q; want true, %q", alive, state, hostInstalling)
	}
	_, body, _ := v1Call(t, c, http.MethodGet, "/v1/health", nil)
	var rows []struct {
		Host  string `json:"host"`
		Alive bool   `json:"alive"`
		State string `json:"state"`
	}
	dataOf(t, body, &rows)
	if len(rows) != 2 || rows[0].Host != "compute-0-0" || !rows[0].Alive || rows[0].State != hostInstalling ||
		rows[1].Host != "frontend-0" {
		t.Errorf("/v1/health = %s; want compute-0-0 installing, then frontend-0", body)
	}
}
