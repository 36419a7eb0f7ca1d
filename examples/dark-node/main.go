// Dark node: the §4 management loop. With no dedicated management network,
// an unreachable node is "dark" — the administrator's remedies are, in
// order, shoot-node over Ethernet, a hard power cycle on the network PDU,
// and finally the crash cart. This example breaks a node, watches the
// health monitor flag it, and walks the escalation until the node is back.
//
//	go run ./examples/dark-node
package main

import (
	"fmt"
	"log"
	"time"

	"rocks/internal/clusterdb"
	"rocks/internal/core"
	"rocks/internal/hardware"
	"rocks/internal/node"
)

func main() {
	cluster, err := core.New(core.Config{Name: "Watchtower", DHCPRetry: 5 * time.Millisecond})
	if err != nil {
		log.Fatal(err)
	}
	defer cluster.Close()
	nodes, err := cluster.IntegrateNodes(
		[]hardware.Profile{
			hardware.PIIICompute(cluster.MACs(), 733),
			hardware.PIIICompute(cluster.MACs(), 733),
		},
		clusterdb.MembershipCompute, 0, time.Minute)
	if err != nil {
		log.Fatal(err)
	}

	mon := cluster.NewMonitor(30 * time.Millisecond)
	mon.Probe()
	fmt.Print(mon.Report())

	// A power supply dies: compute-0-1 vanishes from the network.
	victim := nodes[1]
	victim.PowerOff()
	time.Sleep(40 * time.Millisecond)
	mon.Probe()
	fmt.Println("\nafter the fault:")
	fmt.Print(mon.Report())

	dark := mon.Dark()
	if len(dark) != 1 {
		log.Fatalf("expected one dark node, got %v", dark)
	}
	fmt.Printf("\n%s is dark; shoot-node needs a live OS, so escalate to the PDU\n", dark[0])

	outlet, ok := cluster.PDU.OutletFor(victim.MAC())
	if !ok {
		log.Fatal("victim not wired to the PDU")
	}
	if err := cluster.PDU.HardCycle(outlet); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("hard power cycle on outlet %d: the node reinstalls itself\n", outlet)
	for !core.WaitState(victim, node.StateUp, time.Minute) {
		log.Fatal("node did not recover")
	}
	mon.Probe()
	fmt.Println("\nafter recovery:")
	fmt.Print(mon.Report())
	fmt.Printf("\n%s reinstalled %d times; manifest consistent again\n",
		victim.Name(), victim.Installs())
}
