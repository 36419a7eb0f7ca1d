// shoot-node instructs compute nodes to reboot into installation mode over
// Ethernet (§6.3). With -watch it attaches to the first node's eKV port and
// streams the Red Hat installation screen — the xterm the paper pops open.
//
// With -timeline it prints each node's lifecycle timeline from the
// frontend's event bus after shooting — discover through install, up, dark,
// power cycles — so the administrator sees what the machine has been
// through.
//
//	shoot-node -server http://127.0.0.1:8070 compute-0-0 compute-0-1
//	shoot-node -server http://127.0.0.1:8070 -watch compute-0-0
//	shoot-node -server http://127.0.0.1:8070 -timeline compute-0-0
package main

import (
	"context"
	"flag"
	"fmt"
	"net/url"
	"os"
	"strings"
	"time"

	"rocks/internal/apiclient"
	"rocks/internal/ekv"
	"rocks/internal/lifecycle"
)

func main() {
	var (
		server   = flag.String("server", "http://127.0.0.1:8070", "frontend admin URL")
		watch    = flag.Bool("watch", false, "attach to the first node's eKV screen")
		timeline = flag.Bool("timeline", false, "print each node's lifecycle timeline after shooting")
	)
	flag.Parse()
	if flag.NArg() == 0 {
		fmt.Fprintln(os.Stderr, "usage: shoot-node [-server URL] [-watch] [-timeline] node...")
		os.Exit(2)
	}
	params := url.Values{}
	for _, n := range flag.Args() {
		params.Add("node", n)
	}
	if *watch {
		params.Set("watch", "1")
	}
	var out map[string]string
	ctx := context.Background()
	client := apiclient.New(*server)
	if err := client.Post(ctx, "shoot", params, &out); err != nil {
		fmt.Fprintln(os.Stderr, "shoot-node:", err)
		os.Exit(1)
	}
	fmt.Printf("%s: %s\n", strings.Join(flag.Args(), ", "), out["status"])

	if *watch {
		addr := out["ekv"]
		if addr == "" {
			fmt.Fprintln(os.Stderr, "shoot-node: node exposed no eKV port")
			os.Exit(1)
		}
		watchScreen(addr)
	}

	if *timeline {
		for _, n := range flag.Args() {
			var tr lifecycle.TimelineResponse
			if err := client.Get(ctx, "events", url.Values{"node": {n}}, &tr); err != nil {
				fmt.Fprintln(os.Stderr, "shoot-node:", err)
				os.Exit(1)
			}
			fmt.Printf("\n== %s lifecycle (%d events, %d dropped) ==\n", n, len(tr.Events), tr.Dropped)
			os.Stdout.WriteString(lifecycle.FormatTimeline(tr.Events))
		}
	}
}

// watchScreen attaches to a node's eKV port and streams the installation
// screen until the install completes or the connection drops (the node
// rebooting closes the port).
func watchScreen(addr string) {
	client, err := ekv.Attach(addr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "shoot-node:", err)
		os.Exit(1)
	}
	defer client.Close()
	seen := 0
	for {
		s := client.Screen()
		if len(s) > seen {
			os.Stdout.WriteString(s[seen:])
			seen = len(s)
		}
		if strings.Contains(s, "installation complete") {
			return
		}
		select {
		case <-client.Done():
			if rest := client.Screen(); len(rest) > seen {
				os.Stdout.WriteString(rest[seen:])
			}
			return
		case <-time.After(50 * time.Millisecond):
		}
	}
}
