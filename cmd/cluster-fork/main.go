// cluster-fork runs a command on the set of nodes an SQL query selects
// (§6.4). With -kill it becomes cluster-kill, terminating a named process
// on exactly the selected nodes — including via multi-table joins:
//
//	cluster-fork -server http://127.0.0.1:8070 -cmd "rpm -q glibc"
//	cluster-fork -server http://127.0.0.1:8070 \
//	    -query "select name from nodes where rack=1" -kill bad-job
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net/url"
	"os"
	"strings"

	"rocks/internal/apiclient"
	"rocks/internal/ctools"
)

type forkResponse struct {
	Results []struct {
		Host   string `json:"host"`
		Output string `json:"output"`
		Error  string `json:"error"`
	} `json:"results"`
	Killed int `json:"killed"`
}

func main() {
	var (
		server = flag.String("server", "http://127.0.0.1:8070", "frontend admin URL")
		query  = flag.String("query", "", "SQL selecting target hostnames (default: all compute nodes)")
		cmd    = flag.String("cmd", "", "command to run on each selected node")
		kill   = flag.String("kill", "", "process name to kill instead of running a command")
		group  = flag.Bool("group", false, "collapse identical outputs across hosts")
	)
	flag.Parse()
	if (*cmd == "") == (*kill == "") {
		fmt.Fprintln(os.Stderr, "usage: cluster-fork [-server URL] [-query SQL] (-cmd CMD | -kill PROC)")
		os.Exit(2)
	}

	endpoint := "fork"
	params := url.Values{}
	if *query != "" {
		params.Set("query", *query)
	}
	if *kill != "" {
		endpoint = "kill"
		params.Set("process", *kill)
	} else {
		params.Set("cmd", *cmd)
	}
	var fr forkResponse
	if err := apiclient.New(*server).Post(context.Background(), endpoint, params, &fr); err != nil {
		fmt.Fprintln(os.Stderr, "cluster-fork:", err)
		os.Exit(1)
	}
	if *group {
		var results []ctools.HostResult
		exit := 0
		for _, r := range fr.Results {
			hr := ctools.HostResult{Host: r.Host, Output: r.Output}
			if r.Error != "" {
				hr.Err = errors.New(r.Error)
				exit = 1
			}
			results = append(results, hr)
		}
		fmt.Print(ctools.GroupFormat(results))
		if *kill != "" {
			fmt.Printf("killed %d process(es)\n", fr.Killed)
		}
		os.Exit(exit)
	}
	exit := 0
	for _, r := range fr.Results {
		if r.Error != "" {
			fmt.Printf("%s: ERROR: %s\n", r.Host, r.Error)
			exit = 1
			continue
		}
		out := strings.TrimRight(r.Output, "\n")
		if out == "" {
			fmt.Printf("%s:\n", r.Host)
			continue
		}
		for _, line := range strings.Split(out, "\n") {
			fmt.Printf("%s: %s\n", r.Host, line)
		}
	}
	if *kill != "" {
		fmt.Printf("killed %d process(es)\n", fr.Killed)
	}
	os.Exit(exit)
}
