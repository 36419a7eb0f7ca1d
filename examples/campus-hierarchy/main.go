// Campus hierarchy: the paper's Figure 6 object-oriented distribution
// model. NPACI publishes a distribution; a university campus mirrors it
// over HTTP and layers licensed software on top; a department derives from
// the campus and adds its own packages plus a graph customization. A
// department cluster then installs nodes carrying software from all three
// levels — while the derived trees stay lightweight because inherited
// packages are linked, not copied (§6.2.3).
//
//	go run ./examples/campus-hierarchy
package main

import (
	"context"
	"fmt"
	"log"
	"net/http/httptest"
	"time"

	"rocks/internal/clusterdb"
	"rocks/internal/core"
	"rocks/internal/dist"
	"rocks/internal/hardware"
	"rocks/internal/kickstart"
	"rocks/internal/rpm"
)

func main() {
	// Level 0: NPACI's master distribution, served over HTTP.
	npaci := dist.Build("npaci-rocks", kickstart.DefaultFramework(),
		dist.Source{Name: "redhat-7.2", Repo: dist.SyntheticRedHat()},
		dist.Source{Name: "rocks-local", Repo: dist.LocalRocksPackages()})
	npaciSrv := httptest.NewServer(dist.NewServer(npaci))
	defer npaciSrv.Close()
	fmt.Printf("NPACI serves %d packages at %s\n", npaci.Repo.Len(), npaciSrv.URL)

	// Level 1: the campus replicates NPACI with wget-over-HTTP and adds a
	// licensed compiler.
	mirror, _, err := dist.Mirror(context.Background(), npaciSrv.URL, "npaci-mirror", dist.MirrorOptions{})
	if err != nil {
		log.Fatal(err)
	}
	campusLocal := rpm.NewRepository("campus-rpms")
	campusLocal.Add(rpm.New("licensed-fortran", rpm.Version{Version: "4.0", Release: "2"}, rpm.ArchI386))
	parent := dist.Build("npaci-rocks", kickstart.DefaultFramework(),
		dist.Source{Name: "npaci-mirror", Repo: mirror})
	campus := dist.BuildChild("campus", parent, nil,
		dist.Source{Name: "campus-rpms", Repo: campusLocal})
	fmt.Printf("campus: %s", campus.Report.Summary())

	// Level 2: the department extends the campus framework — a new node
	// file and a graph edge pull its packages onto every compute node.
	deptLocal := rpm.NewRepository("dept-rpms")
	deptLocal.Add(rpm.New("dept-visualizer", rpm.Version{Version: "1.3", Release: "1"}, rpm.ArchI386))
	dept := dist.BuildChild("department", campus, nil,
		dist.Source{Name: "dept-rpms", Repo: deptLocal})
	dept.Framework.AddNode(&kickstart.NodeFile{
		Name:        "dept-tools",
		Description: "Department-wide additions",
		Packages: []kickstart.PackageRef{
			{Name: "dept-visualizer"},
			{Name: "licensed-fortran"},
		},
	})
	dept.Framework.Graph.AddEdge("compute", "dept-tools")
	fmt.Printf("department: %s", dept.Report.Summary())
	fmt.Printf("department tree: %d linked, %d copied (derived distributions stay light)\n",
		dept.Report.Linked, dept.Report.Copied)

	// A department cluster installs from the derived distribution.
	cluster, err := core.New(core.Config{
		Name:      "dept-cluster",
		Framework: dept.Framework,
		Sources: []dist.Source{
			{Name: "department", Repo: dept.Repo},
		},
		DHCPRetry: 5 * time.Millisecond,
	})
	if err != nil {
		log.Fatal(err)
	}
	defer cluster.Close()
	nodes, err := cluster.IntegrateNodes(
		[]hardware.Profile{hardware.PIIICompute(cluster.MACs(), 733)},
		clusterdb.MembershipCompute, 0, time.Minute)
	if err != nil {
		log.Fatal(err)
	}
	n := nodes[0]
	for _, pkg := range []string{"glibc", "rocks-tools", "licensed-fortran", "dept-visualizer"} {
		m, ok := n.PackageDB().Query(pkg)
		if !ok {
			log.Fatalf("node missing %s", pkg)
		}
		fmt.Printf("  %s has %-28s (from the %s level)\n", n.Name(), m.NVRA(), levelOf(pkg))
	}
}

func levelOf(pkg string) string {
	switch pkg {
	case "licensed-fortran":
		return "campus"
	case "dept-visualizer":
		return "department"
	case "rocks-tools":
		return "NPACI"
	default:
		return "Red Hat"
	}
}
