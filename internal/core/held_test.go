package core

import (
	"runtime"
	"testing"
	"time"

	"rocks/internal/clusterdb"
	"rocks/internal/dist"
	"rocks/internal/hardware"
	"rocks/internal/node"
	"rocks/internal/rpm"
)

// integrateConcurrently discovers and installs count new PIII machines as one
// rack, all powered on at once, and waits until every one is up.
func integrateConcurrently(t *testing.T, c *Cluster, count, rack int) []*node.Node {
	t.Helper()
	ie, err := c.StartInsertEthers(clusterdb.MembershipCompute, rack)
	if err != nil {
		t.Fatal(err)
	}
	defer ie.Stop()
	nodes := make([]*node.Node, count)
	for i := range nodes {
		nodes[i] = node.New(hardware.PIIICompute(c.MACs(), 733))
		c.PowerOn(nodes[i])
	}
	for i, n := range nodes {
		if !WaitState(n, node.StateUp, 2*time.Minute) {
			t.Fatalf("rack %d node %d (%s) stuck in %s", rack, i, n.MAC(), n.State())
		}
	}
	return nodes
}

// heapInuse is the live heap after two collections.
func heapInuse() uint64 {
	var ms runtime.MemStats
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&ms)
	return ms.HeapInuse
}

// TestRetainedHeapPerNode bounds what an up node costs the process to keep:
// the slope of the live heap between 64 and 256 integrated nodes. Every node
// of a class runs byte-identical packages (§3.2), so what grows with the
// node count is the node's own state, not another copy of its software.
func TestRetainedHeapPerNode(t *testing.T) {
	if testing.Short() {
		t.Skip("256-node live integration")
	}
	c, err := New(Config{Name: "heap", DHCPRetry: 2 * time.Millisecond, DisableEKV: true})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	var nodes []*node.Node
	rack := 0
	grow := func(to int) uint64 {
		for len(nodes) < to {
			nodes = append(nodes, integrateConcurrently(t, c, min(32, to-len(nodes)), rack)...)
			rack++
		}
		if err := c.FlushReports(); err != nil {
			t.Fatal(err)
		}
		return heapInuse()
	}
	at64 := grow(64)
	at256 := grow(256)
	perNode := (float64(at256) - float64(at64)) / 192
	t.Logf("retained heap per up node: %.1f KB (HeapInuse %d at 64 nodes, %d at 256)", perNode/1024, at64, at256)
	if perNode > 40<<10 {
		t.Errorf("an up node retains %.1f KB of heap, want at most 40 KB", perNode/1024)
	}
	runtime.KeepAlive(nodes)
}

// updateOne rebinds the distribution to one in which the first package the
// compute node runs and the frontend does not is replaced by its
// dist.GenerateUpdates update: a bumped release over the same payload bytes.
// It returns the package's name and its two NVRAs.
func updateOne(t *testing.T, c *Cluster, compute *node.Node) (name, old, updated string) {
	t.Helper()
	for _, m := range compute.PackageDB().List() {
		if _, ok := c.Frontend.PackageDB().Query(m.Name); !ok {
			name, old = m.Name, m.NVRA()
			break
		}
	}
	base := rpm.NewRepository("base")
	base.Add(c.Dist.Repo.Get(old))
	updates := dist.GenerateUpdates(base, 1, 1)
	up := updates.All()
	if len(up) != 1 || up[0].Name != name || up[0].Digest != c.Dist.Repo.Get(old).Digest {
		t.Fatalf("the update of %s is %v, want one package over the same payload", old, up)
	}
	rebuilt := dist.Build(c.Dist.Name, c.Dist.Framework,
		dist.Source{Name: "current", Repo: c.Dist.Repo}, dist.Source{Name: "updates", Repo: updates})
	*c.Dist = *rebuilt
	return name, old, up[0].NVRA()
}

// reinstall shoots a node and waits until it is up from the install.
func reinstall(t *testing.T, c *Cluster, n *node.Node) {
	t.Helper()
	installs := n.Installs()
	if err := c.ShootNode(n.Name()); err != nil {
		t.Fatal(err)
	}
	for deadline := time.Now().Add(integrationTimeout); n.Installs() == installs || n.State() != node.StateUp; {
		if time.Now().After(deadline) {
			t.Fatalf("%s stuck in %s after %d installs", n.Name(), n.State(), n.Installs())
		}
		time.Sleep(time.Millisecond)
	}
}

// TestHeldUpdateKeepsEachNodesVersion: two nodes run package X; one of them
// reinstalls onto X's update, whose payload digest is X's. Each node's
// package database still names the version it installed.
func TestHeldUpdateKeepsEachNodesVersion(t *testing.T) {
	c := newCluster(t)
	nodes := addComputes(t, c, 2)
	a, b := nodes[0], nodes[1]
	name, old, updated := updateOne(t, c, a)
	reinstall(t, c, b)
	if m, _ := b.PackageDB().Query(name); m.NVRA() != updated {
		t.Errorf("%s reinstalled onto %s, runs %s", b.Name(), updated, m.NVRA())
	}
	if m, _ := a.PackageDB().Query(name); m.NVRA() != old {
		t.Errorf("%s installed %s, runs %s", a.Name(), old, m.NVRA())
	}
}

// TestHeldStoreDropsReplacedVersion: once every node has reinstalled from a
// tree that replaced one package, nothing holds the old version, and it
// leaves the store after a collection: the store holds what the nodes and
// their relay stores hold, no more.
func TestHeldStoreDropsReplacedVersion(t *testing.T) {
	c, err := New(Config{Name: "held", DHCPRetry: 2 * time.Millisecond, DisableEKV: true, EnableRelays: true})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	nodes := integrateConcurrently(t, c, 4, 0)
	settle := func(want int) {
		t.Helper()
		for deadline := time.Now().Add(10 * time.Second); c.floor.held.Len() != want; {
			if time.Now().After(deadline) {
				t.Fatalf("the store holds %d packages, want %d", c.floor.held.Len(), want)
			}
			runtime.GC()
			time.Sleep(time.Millisecond)
		}
	}
	before := c.floor.held.Len()
	updateOne(t, c, nodes[0])
	for i, n := range nodes {
		reinstall(t, c, n)
		if i == 0 {
			settle(before + 1) // the update beside the version the rest still run
		}
	}
	settle(before)
	runtime.KeepAlive(nodes)
}
