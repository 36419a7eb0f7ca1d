// rocksql runs SQL against a running cluster's configuration database —
// the query interface every Rocks tool composes with (§6.4). Point it at a
// cluster-sim frontend:
//
//	rocksql -server http://127.0.0.1:8070 "select * from nodes"
//	rocksql -server http://127.0.0.1:8070 -exec "update nodes set rack = 1 where name = 'compute-0-3'"
package main

import (
	"context"
	"flag"
	"fmt"
	"net/url"
	"os"

	"rocks/internal/apiclient"
	"rocks/internal/clusterdb"
)

func main() {
	var (
		server = flag.String("server", "http://127.0.0.1:8070", "frontend admin URL")
		exec   = flag.Bool("exec", false, "allow data-modification statements")
		dump   = flag.String("dump", "", "query an offline SQL dump file instead of a live frontend")
	)
	flag.Parse()
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: rocksql [-server URL | -dump FILE] [-exec] \"SQL\"")
		os.Exit(2)
	}
	if *dump != "" {
		queryDump(*dump, flag.Arg(0), *exec)
		return
	}
	params := url.Values{"q": {flag.Arg(0)}}
	client := apiclient.New(*server)
	var out struct {
		Result string `json:"result"`
	}
	var err error
	if *exec {
		// Mutations go over POST: the /v1 surface rejects a GET with
		// exec=1, and the frontend records the statement in its audit log.
		params.Set("exec", "1")
		err = client.Post(context.Background(), "sql", params, &out)
	} else {
		err = client.Get(context.Background(), "sql", params, &out)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "rocksql:", err)
		os.Exit(1)
	}
	fmt.Print(out.Result)
}

// queryDump restores a database dump (see clusterdb.Dump) and runs the
// query against it — post-mortem analysis of a dead frontend's backup.
func queryDump(path, sql string, exec bool) {
	data, err := os.ReadFile(path)
	if err != nil {
		fmt.Fprintln(os.Stderr, "rocksql:", err)
		os.Exit(1)
	}
	db := clusterdb.New()
	if err := clusterdb.Restore(db, string(data)); err != nil {
		fmt.Fprintln(os.Stderr, "rocksql:", err)
		os.Exit(1)
	}
	var res *clusterdb.Result
	if exec {
		res, err = db.Exec(sql)
	} else {
		res, err = db.Query(sql)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "rocksql:", err)
		os.Exit(1)
	}
	fmt.Print(res.Format())
}
