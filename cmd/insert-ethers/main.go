// insert-ethers integrates new machines into a running cluster (§6.4): it
// asks the frontend to start a discovery session, power on the requested
// simulated hardware sequentially, and report the assigned names.
//
// With -timeline it follows up with each integrated node's lifecycle
// timeline from the frontend's event bus: discovery, DHCP lease, kickstart,
// package installation, and the moment it joined service.
//
//	insert-ethers -server http://127.0.0.1:8070 -count 4 -rack 0
//	insert-ethers -server http://127.0.0.1:8070 -count 1 -membership 2 -mhz 1000
//	insert-ethers -server http://127.0.0.1:8070 -count 1 -timeline
package main

import (
	"context"
	"flag"
	"fmt"
	"net/url"
	"os"
	"strconv"

	"rocks/internal/apiclient"
	"rocks/internal/lifecycle"
)

func main() {
	var (
		server     = flag.String("server", "http://127.0.0.1:8070", "frontend admin URL")
		count      = flag.Int("count", 1, "number of machines to power on and integrate")
		rack       = flag.Int("rack", 0, "cabinet being populated")
		membership = flag.Int("membership", 2, "membership ID for the new nodes (2 = Compute)")
		mhz        = flag.Int("mhz", 733, "CPU speed of the simulated machines")
		wait       = flag.Int("wait", 120, "seconds to wait for all nodes to come up")
		timeline   = flag.Bool("timeline", false, "print each integrated node's lifecycle timeline")
	)
	flag.Parse()

	params := url.Values{
		"count":      {strconv.Itoa(*count)},
		"rack":       {strconv.Itoa(*rack)},
		"membership": {strconv.Itoa(*membership)},
		"mhz":        {strconv.Itoa(*mhz)},
		"wait":       {strconv.Itoa(*wait)},
	}
	var out map[string][]string
	ctx := context.Background()
	client := apiclient.New(*server)
	if err := client.Post(ctx, "integrate", params, &out); err != nil {
		fmt.Fprintln(os.Stderr, "insert-ethers:", err)
		os.Exit(1)
	}
	for _, name := range out["integrated"] {
		fmt.Printf("inserted %s\n", name)
	}
	if *timeline {
		for _, name := range out["integrated"] {
			var tr lifecycle.TimelineResponse
			if err := client.Get(ctx, "events", url.Values{"node": {name}}, &tr); err != nil {
				fmt.Fprintln(os.Stderr, "insert-ethers:", err)
				os.Exit(1)
			}
			fmt.Printf("\n== %s lifecycle (%d events) ==\n", name, len(tr.Events))
			os.Stdout.WriteString(lifecycle.FormatTimeline(tr.Events))
		}
	}
}
