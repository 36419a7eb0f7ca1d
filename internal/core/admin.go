package core

import (
	"errors"
	"fmt"
	"net/http"
	"slices"
	"strconv"
	"strings"
	"time"

	"rocks/internal/clusterdb"
	"rocks/internal/ctools"
	"rocks/internal/dist"
	"rocks/internal/federation"
	"rocks/internal/lifecycle"
)

// The admin API is the simulation's control plane: what an administrator
// reaches over ssh on a real frontend, exposed over HTTP so the cmd/ tools
// (shoot-node, cluster-fork, rocksql, insert-ethers) work as separate
// processes against a running cluster-sim.
//
// Every operation is defined once as an endpoint (run function + audit
// metadata) and served at /v1/<name>: {"data": ...} / {"error": ...}
// envelopes, POST-only mutations (405 otherwise), and an audit record for
// every mutating call.

// apiError is the one structured error shape: machine-readable code,
// human-readable message, and the HTTP status the caller saw, serialized as
// {"error": {...}}.
type apiError struct {
	Code    string `json:"code"`
	Message string `json:"message"`
	Status  int    `json:"status"`
}

func (e *apiError) Error() string { return e.Message }

func apiErrorf(status int, code, format string, args ...interface{}) *apiError {
	return &apiError{Code: code, Message: fmt.Sprintf(format, args...), Status: status}
}

// endpoint describes one control-plane operation.
type endpoint struct {
	// name is the path suffix under /v1/ and the op label on
	// rocks_api_requests_total.
	name string
	// audit is the audit-log op name; empty marks a read-only endpoint.
	audit string
	// mutates, when set, decides per-request whether the call mutates
	// (sql: only with exec=1). nil on a mutating endpoint means always.
	mutates func(*http.Request) bool
	// detail renders the operation's parameters for the audit record.
	detail func(*http.Request) string
	// run executes the operation and returns the response payload.
	run func(*http.Request) (interface{}, *apiError)
	// fanout, when set, post-processes run's payload on a federated
	// parent: it fans the query out to registered child frontends and
	// merges their shard results into the local payload. Standalone
	// frontends have no children and fan-outs pass through untouched.
	fanout func(*http.Request, interface{}) (interface{}, *apiError)
}

// ForkResponse is the JSON shape of fork/kill results.
type ForkResponse struct {
	Results []ForkHostResult `json:"results"`
	Killed  int              `json:"killed,omitempty"`
}

// ForkHostResult is one host's outcome.
type ForkHostResult struct {
	Host   string `json:"host"`
	Output string `json:"output,omitempty"`
	Error  string `json:"error,omitempty"`
}

// SQLResponse is the JSON shape of /v1/sql results.
type SQLResponse struct {
	Result string `json:"result"`
	Exec   bool   `json:"exec,omitempty"`
}

func (q SQLResponse) appendJSON(b []byte, flush func([]byte) []byte) []byte {
	b = federation.AppendJSONString(append(b, `{"result":`...), q.Result, flush)
	if q.Exec {
		b = append(b, `,"exec":true`...)
	}
	return append(b, '}')
}

// ReinstallResult reports what a cluster-wide reinstall actually achieved.
// Converged is only true when every reinstall job completed and every node
// came back up within the deadline; NotUp names the stragglers.
type ReinstallResult struct {
	Status    string   `json:"status"`
	Converged bool     `json:"converged"`
	NotUp     []string `json:"not_up,omitempty"`
}

func (c *Cluster) registerAdmin(mux *http.ServeMux) {
	eps := append(c.apiEndpoints(), c.relays.endpoint(), c.remedy.endpoint(), c.facts.endpoint(), c.audit.endpoint())
	for _, ep := range append(eps, c.fed.endpoints()...) {
		mux.HandleFunc("/v1/"+ep.name, c.audit.handler(ep))
	}
}

// apiEndpoints enumerates the control plane Cluster serves itself: seven
// mutations and the read-only views; the subsystems add their own.
func (c *Cluster) apiEndpoints() []endpoint {
	return []endpoint{
		{
			name:  "sql",
			audit: "sql-exec",
			mutates: func(r *http.Request) bool {
				return r.FormValue("exec") == "1"
			},
			detail: func(r *http.Request) string { return r.FormValue("q") },
			run:    c.opSQL,
		},
		{
			name:  "fork",
			audit: "fork",
			detail: func(r *http.Request) string {
				return fmt.Sprintf("cmd %q query %q", r.FormValue("cmd"), r.FormValue("query"))
			},
			run: c.opFork,
		},
		{
			name:  "kill",
			audit: "kill",
			detail: func(r *http.Request) string {
				return fmt.Sprintf("process %q query %q", r.FormValue("process"), r.FormValue("query"))
			},
			run: c.opKill,
		},
		{
			name:  "shoot",
			audit: "shoot",
			detail: func(r *http.Request) string {
				r.ParseForm()
				return "nodes " + strings.Join(r.Form["node"], ",")
			},
			run: c.opShoot,
		},
		{
			name:  "integrate",
			audit: "integrate",
			detail: func(r *http.Request) string {
				return fmt.Sprintf("count=%s rack=%s membership=%s",
					formOr(r, "count", "1"), formOr(r, "rack", "0"), formOr(r, "membership", "default"))
			},
			run: c.opIntegrate,
		},
		{
			name:   "adduser",
			audit:  "adduser",
			detail: func(r *http.Request) string { return "user " + r.FormValue("name") },
			run:    c.opAddUser,
		},
		{
			name:   "reinstall-cluster",
			audit:  "reinstall-cluster",
			detail: func(r *http.Request) string { return "wait=" + formOr(r, "wait", "120") + "s" },
			run:    c.opReinstall,
		},
		{name: "consistency", run: c.opConsistency},
		{name: "health", run: c.opHealth},
		{name: "dbstats", run: c.opDBStats},
		{name: "diststats", run: c.opDistStats},
		// On a federated parent the merged queries fan out to child
		// frontends, and remirror cascades down the distribution tree.
		{name: "events", run: c.opEvents, fanout: fan(c.fed, c.fed.fanEvents)},
		{name: "nodes", run: c.opNodes, fanout: fan(c.fed, c.fed.fanNodes)},
		{name: "dbreport", run: c.opDBReport, fanout: fan(c.fed, c.fed.fanDBReport)},
		{
			name:  "federation/remirror",
			audit: "federation-remirror",
			detail: func(r *http.Request) string {
				return "cascade re-mirror"
			},
			run:    c.opFedRemirror,
			fanout: fan(c.fed, c.fed.fanRemirror),
		},
	}
}

// opSQL runs a read-only query (q=...); exec=1 permits data-modification
// statements (and requires POST).
func (c *Cluster) opSQL(r *http.Request) (interface{}, *apiError) {
	q := r.FormValue("q")
	if q == "" {
		return nil, apiErrorf(http.StatusBadRequest, "missing_parameter", "missing q parameter")
	}
	exec := r.FormValue("exec") == "1"
	var res *clusterdb.Result
	var err error
	if exec {
		res, err = c.DB.Exec(q)
	} else {
		res, err = c.DB.Query(q)
	}
	if err != nil {
		return nil, apiErrorf(http.StatusBadRequest, "sql_error", "%v", err)
	}
	if exec {
		c.WriteReports() // mutations may change service configuration
	}
	return SQLResponse{Result: res.Format(), Exec: exec}, nil
}

func (c *Cluster) opFork(r *http.Request) (interface{}, *apiError) {
	cmd := r.FormValue("cmd")
	if cmd == "" {
		return nil, apiErrorf(http.StatusBadRequest, "missing_parameter", "missing cmd parameter")
	}
	results, err := c.Fork(r.FormValue("query"), cmd)
	if err != nil {
		return nil, apiErrorf(http.StatusBadRequest, "fork_failed", "%v", err)
	}
	return forkResponse(results, 0), nil
}

func (c *Cluster) opKill(r *http.Request) (interface{}, *apiError) {
	proc := r.FormValue("process")
	if proc == "" {
		return nil, apiErrorf(http.StatusBadRequest, "missing_parameter", "missing process parameter")
	}
	results, killed, err := c.Kill(r.FormValue("query"), proc)
	if err != nil {
		return nil, apiErrorf(http.StatusBadRequest, "kill_failed", "%v", err)
	}
	return forkResponse(results, killed), nil
}

func forkResponse(results []ctools.HostResult, killed int) ForkResponse {
	resp := ForkResponse{Killed: killed}
	for _, hr := range results {
		out := ForkHostResult{Host: hr.Host, Output: hr.Output}
		if hr.Err != nil {
			out.Error = hr.Err.Error()
		}
		resp.Results = append(resp.Results, out)
	}
	return resp
}

// opShoot reinstalls the named nodes (node=a&node=b). With watch=1 it waits
// for the first node's eKV port and reports it so the CLI can attach; the
// installer hands the port over itself, so the wait cannot miss a short
// installation, and it ends early when the client hangs up or the cluster
// shuts down. A name the database does not hold is a 404.
func (c *Cluster) opShoot(r *http.Request) (interface{}, *apiError) {
	r.ParseForm()
	names := r.Form["node"]
	if len(names) == 0 {
		return nil, apiErrorf(http.StatusBadRequest, "missing_parameter", "missing node parameter")
	}
	var port string
	var watched bool
	var err error
	if r.FormValue("watch") == "1" {
		watched, err = c.shootWatched(r.Context(), 10*time.Second, func(addr string) { port = addr }, names...)
	} else {
		err = c.ShootNode(names...)
	}
	if err != nil {
		if errors.Is(err, ErrUnknownNode) {
			return nil, apiErrorf(http.StatusNotFound, "unknown_node", "%v", err)
		}
		return nil, apiErrorf(http.StatusBadRequest, "shoot_failed", "%v", err)
	}
	resp := map[string]string{"status": "reinstalling"}
	if watched {
		resp["ekv"] = port
	}
	return resp, nil
}

func (c *Cluster) opAddUser(r *http.Request) (interface{}, *apiError) {
	name := r.FormValue("name")
	if name == "" {
		return nil, apiErrorf(http.StatusBadRequest, "missing_parameter", "missing name parameter")
	}
	uid, aerr := formInt(r, "uid", 500, 0)
	if aerr != nil {
		return nil, aerr
	}
	if err := c.AddUser(name, uid); err != nil {
		return nil, apiErrorf(http.StatusInternalServerError, "adduser_failed", "%v", err)
	}
	return map[string]string{"status": "added", "user": name}, nil
}

// opReinstall reinstalls every compute node through PBS and reports what
// actually happened: Converged only when all jobs completed and every node
// came back up within the deadline, with NotUp naming the machines that
// did not — never an unconditional "cluster reinstalled".
func (c *Cluster) opReinstall(r *http.Request) (interface{}, *apiError) {
	waitSec, aerr := formInt(r, "wait", 120, 0)
	if aerr != nil {
		return nil, aerr
	}
	wait := time.Duration(waitSec) * time.Second
	// One deadline governs both the PBS drain and the come-back-up wait;
	// a drain that eats the whole budget leaves nothing for the boot poll.
	deadline := time.Now().Add(wait)
	jobErr := c.ReinstallCluster(wait)
	var timeoutErr *ReinstallTimeoutError
	if jobErr != nil && !errors.As(jobErr, &timeoutErr) {
		return nil, apiErrorf(http.StatusInternalServerError, "reinstall_failed", "%v", jobErr)
	}
	// The convergence poll ends early when the client hangs up or the
	// cluster shuts down, reporting whatever state the last pass saw; it
	// must never hold the handler (and with it Close) to the full deadline.
	var notUp []string
poll:
	for {
		notUp = notUp[:0]
		for _, mac := range c.floor.macs() {
			if _, state := c.floor.ping(mac); state != hostUp {
				notUp = append(notUp, hostname(c.DB, mac))
			}
		}
		if len(notUp) == 0 || !time.Now().Before(deadline) {
			break
		}
		select {
		case <-time.After(5 * time.Millisecond):
		case <-r.Context().Done():
			break poll
		case <-c.ctx.Done():
			break poll
		}
	}
	if timeoutErr != nil {
		notUp = append(notUp, timeoutErr.StuckHosts()...)
	}
	slices.Sort(notUp)
	notUp = slices.Compact(notUp)
	res := ReinstallResult{Converged: jobErr == nil && len(notUp) == 0, NotUp: notUp}
	if res.Converged {
		res.Status = "cluster reinstalled"
	} else {
		res.Status = fmt.Sprintf("reinstall incomplete: %d nodes not up", len(notUp))
	}
	return res, nil
}

func (c *Cluster) opConsistency(r *http.Request) (interface{}, *apiError) {
	ref, divergent, err := c.ConsistencyReport()
	if err != nil {
		return nil, apiErrorf(http.StatusInternalServerError, "consistency_failed", "%v", err)
	}
	return map[string]interface{}{"reference": ref, "divergent": divergent}, nil
}

// opDBStats exposes the database fast path's instrumentation: plan-cache
// traffic, index-vs-scan SELECT counts, per-index key counts, the WAL and
// snapshot counters (durable databases), what recovery found at startup,
// the report coalescer's write/skip counters, and the kickstart profile
// cache. The same figures are scrapeable on /metrics.
func (c *Cluster) opDBStats(r *http.Request) (interface{}, *apiError) {
	resp := struct {
		DB        clusterdb.DBStats       `json:"db"`
		Recovery  *clusterdb.RecoveryInfo `json:"recovery,omitempty"`
		Reports   ReportStats             `json:"reports"`
		Kickstart struct {
			Hits          uint64 `json:"hits"`
			Misses        uint64 `json:"misses"`
			Invalidations uint64 `json:"invalidations"`
		} `json:"kickstart_cache"`
	}{DB: c.DB.Stats(), Recovery: c.recovery, Reports: c.reports.stats()}
	resp.Kickstart.Hits, resp.Kickstart.Misses, resp.Kickstart.Invalidations = c.KickstartCacheStats()
	return resp, nil
}

// opDistStats exposes the distribution layer end to end: the build report
// (what rocks-dist composed), the serving counters (manifest versus
// package-body traffic — a delta re-mirror advances the former and not the
// latter), and, when this frontend replicated a parent, the mirror pass's
// skipped/fetched/verified accounting.
func (c *Cluster) opDistStats(r *http.Request) (interface{}, *apiError) {
	resp := struct {
		Name   string             `json:"name"`
		Build  dist.BuildReport   `json:"build"`
		Serve  dist.ServeStats    `json:"serve"`
		Mirror *dist.MirrorReport `json:"mirror,omitempty"`
	}{Name: c.Dist.Name, Build: c.Dist.Report, Serve: c.distSrv.Stats()}
	if c.cfg.ParentURL != "" {
		resp.Mirror = c.mirror.Load()
	}
	return resp, nil
}

// opEvents serves the lifecycle bus: the recent event ring, filtered by
// node (matches hostname or MAC and follows both identities as one
// timeline), type, phase, source, and since (sequence number); limit keeps
// the most recent N matches. The response carries the bus's high-water
// sequence and how many old events the bounded ring has dropped, so a
// client polling with since= can detect gaps. The filter rides along in the
// payload for the fan-out.
func (c *Cluster) opEvents(r *http.Request) (interface{}, *apiError) {
	since, aerr := formInt(r, "since", 0, 0)
	if aerr != nil {
		return nil, aerr
	}
	limit, aerr := formInt(r, "limit", 0, 0)
	if aerr != nil {
		return nil, aerr
	}
	var f lifecycle.Filter
	if nodeID := r.FormValue("node"); nodeID != "" {
		f = nodeFilter(c.DB, nodeID)
	}
	f.Type = lifecycle.EventType(r.FormValue("type"))
	f.Phase = lifecycle.Phase(r.FormValue("phase"))
	f.Source = r.FormValue("source")
	f.SinceSeq = uint64(since)
	f.Limit = limit
	return EventsResponse{Events: c.events.Recent(f), Seq: c.events.Seq(), Dropped: c.events.Evicted(), filter: f}, nil
}

// formInt parses an optional integer parameter: absent means def, but bad
// input is a 400 — unparseable text must never silently become a default
// (since=abc), and a negative must never wrap into a huge unsigned value
// (since=-1).
func formInt(r *http.Request, key string, def, min int) (int, *apiError) {
	s := r.FormValue(key)
	if s == "" {
		return def, nil
	}
	n, err := strconv.Atoi(s)
	if err != nil {
		return 0, apiErrorf(http.StatusBadRequest, "bad_parameter",
			"parameter %s: %q is not an integer", key, s)
	}
	if n < min {
		return 0, apiErrorf(http.StatusBadRequest, "bad_parameter",
			"parameter %s: %d is below the minimum %d", key, n, min)
	}
	return n, nil
}

// formOr returns the parameter's raw value, or def when absent — for audit
// details, which record what was asked even when it fails validation.
func formOr(r *http.Request, key, def string) string {
	if s := r.FormValue(key); s != "" {
		return s
	}
	return def
}
