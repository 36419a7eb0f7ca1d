// cluster-health probes every node over the management Ethernet and
// reports which are reachable — closing §4's "in the dark" loop: a dark
// node is either a hardware fault or a common-mode service casualty, and
// the report names the PDU outlet to hard-cycle.
//
// With -metrics it scrapes the frontend's /metrics surface instead and
// prints the exposition; -require asserts that named metric families are
// present (CI's smoke check that instrumentation never silently
// disappears). The scrape is parsed strictly — an exposition that does not
// round-trip is itself a failure.
//
//	cluster-health -server http://127.0.0.1:8070
//	cluster-health -server http://127.0.0.1:8070 -metrics
//	cluster-health -metrics -quiet -require rocks_nodes,rocks_db_wal_fsyncs_total
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"strings"

	"rocks/internal/apiclient"
	"rocks/internal/metrics"
)

func main() {
	var (
		server  = flag.String("server", "http://127.0.0.1:8070", "frontend admin URL")
		scrape  = flag.Bool("metrics", false, "scrape /metrics instead of probing node health")
		require = flag.String("require", "", "comma-separated metric families that must be present (implies -metrics)")
		quiet   = flag.Bool("quiet", false, "with -metrics: suppress the exposition, only report problems")
	)
	flag.Parse()

	if *scrape || *require != "" {
		os.Exit(runMetrics(*server, *require, *quiet))
	}
	os.Exit(runHealth(*server))
}

// runMetrics scrapes and strictly parses /metrics, then checks the
// required families.
func runMetrics(server, require string, quiet bool) int {
	resp, err := http.Get(strings.TrimSuffix(server, "/") + "/metrics")
	if err != nil {
		fmt.Fprintln(os.Stderr, "cluster-health:", err)
		return 1
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		fmt.Fprintf(os.Stderr, "cluster-health: /metrics: HTTP %d\n", resp.StatusCode)
		return 1
	}
	var text strings.Builder
	s, err := metrics.ParseText(io.TeeReader(resp.Body, &text))
	if err != nil {
		fmt.Fprintln(os.Stderr, "cluster-health: /metrics does not parse:", err)
		return 1
	}
	if !quiet {
		os.Stdout.WriteString(text.String())
	}
	missing := 0
	for _, fam := range strings.Split(require, ",") {
		fam = strings.TrimSpace(fam)
		if fam == "" {
			continue
		}
		if !s.Has(fam) {
			fmt.Fprintf(os.Stderr, "cluster-health: required metric family %s is absent\n", fam)
			missing++
		}
	}
	if missing > 0 {
		return 1
	}
	return 0
}

func runHealth(server string) int {
	var rows []struct {
		Host        string `json:"host"`
		Alive       bool   `json:"alive"`
		State       string `json:"state"`
		Outlet      int    `json:"outlet"`
		Quarantined bool   `json:"quarantined"`
	}
	if err := apiclient.New(server).Get(context.Background(), "health", nil, &rows); err != nil {
		fmt.Fprintln(os.Stderr, "cluster-health:", err)
		return 1
	}
	dark, quarantined := 0, 0
	fmt.Printf("%-16s %-8s %-12s %s\n", "HOST", "ALIVE", "STATE", "ACTION")
	for _, r := range rows {
		action := "-"
		switch {
		case r.Quarantined:
			// The supervisor already exhausted its retry budget here: the
			// node is offline in PBS and waiting for hands, not a cycle.
			quarantined++
			action = "quarantined (offline in PBS) — repair, then unquarantine"
		case !r.Alive:
			dark++
			if r.Outlet != 0 {
				action = fmt.Sprintf("hard-cycle PDU outlet %d", r.Outlet)
			} else {
				action = "crash cart"
			}
		}
		alive := "yes"
		if !r.Alive {
			alive = "NO"
		}
		fmt.Printf("%-16s %-8s %-12s %s\n", r.Host, alive, r.State, action)
	}
	if quarantined > 0 {
		fmt.Printf("%d node(s) quarantined\n", quarantined)
	}
	if dark > 0 {
		fmt.Printf("%d node(s) dark\n", dark)
		return 1
	}
	return 0
}
