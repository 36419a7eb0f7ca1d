package core

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"rocks/internal/apiclient"
	"rocks/internal/clusterdb"
	"rocks/internal/dist"
	"rocks/internal/federation"
	"rocks/internal/hardware"
	"rocks/internal/lifecycle"
)

// The federated frontend hierarchy makes the management plane match the
// distribution plane (§6.2): a child frontend is a full Cluster that
// mirrors its parent's distribution (a very durable relay), registers the
// shard of the node population it owns over /v1/federation/register, and
// forwards its lifecycle events upstream. The parent's query plane —
// /v1/nodes, /v1/events, /v1/dbreport, /metrics — fans out to children,
// merges shard results with per-shard provenance, and tolerates a dark
// child by flagging partial results instead of failing. Re-mirrors
// cascade: POST /v1/federation/remirror at the top re-mirrors every level
// against its parent with the delta baseline, so an unchanged tree moves
// zero package bodies anywhere.

// Cluster roles. A mid-tier frontend in a three-level hierarchy has both
// a parent and children; Role reports "child" for it (the parent URL is
// what shapes its behavior), and /v1/federation exposes both sides.
const (
	RoleStandalone = "standalone"
	RoleParent     = "parent"
	RoleChild      = "child"
)

// fedMirrorRing bounds the forwarded-event mirror the parent keeps per
// child — the stale fallback served when that child goes dark.
const fedMirrorRing = 4096

// defaultFederationTimeout bounds each parent→child fan-out request; a
// dark child must cost one bounded wait, not a hung merged query.
const defaultFederationTimeout = 2 * time.Second

// fedState is a cluster's federation half: its own shard declaration, the
// upstream link when it is a child, and the downstream registry when it
// is a parent. Always constructed (cheap when unused) so every query path
// can consult it without nil checks.
type fedState struct {
	c         *Cluster
	shard     federation.Shard
	parentURL string
	client    *http.Client // bounded client for all federation HTTP

	mu        sync.Mutex
	forwarder *lifecycle.Forwarder // child-side upstream stream; nil otherwise
	children  map[string]*fedChild // by shard name

	received      atomic.Uint64 // events ingested from children
	registrations atomic.Uint64
	fanoutErrors  atomic.Uint64 // failed child fetches across fan-outs
	deduped       atomic.Uint64 // duplicates dropped by merged queries

	factsForwarded     atomic.Uint64 // facts reports relayed upstream
	factsForwardErrors atomic.Uint64 // upstream facts relays that failed
}

// fedChild is one registered child frontend.
type fedChild struct {
	shard      federation.Shard
	url        string
	client     *apiclient.Client
	registered time.Time

	mu        sync.Mutex
	lastSeen  time.Time
	forwarded uint64
	lastSeq   uint64
	dark      bool
	mirror    lifecycle.Ring[lifecycle.Event] // forwarded events, shard-stamped
	// Last successful /metrics exposition and when it was scraped: the
	// stale fallback a merged scrape serves while the child is dark, aged
	// by rocks_federation_child_last_scrape_seconds.
	lastExpo   string
	lastExpoAt time.Time
}

func newFedState(c *Cluster) *fedState {
	timeout := c.cfg.FederationTimeout
	if timeout <= 0 {
		timeout = defaultFederationTimeout
	}
	return &fedState{
		c:         c,
		shard:     c.cfg.Shard,
		parentURL: strings.TrimSuffix(c.cfg.Parent, "/"),
		client:    &http.Client{Timeout: timeout},
		children:  make(map[string]*fedChild),
	}
}

// Role reports how this frontend participates in the hierarchy.
func (c *Cluster) Role() string {
	if c.fed.parentURL != "" {
		return RoleChild
	}
	if len(c.fed.childSnapshot()) > 0 {
		return RoleParent
	}
	return RoleStandalone
}

// Shard returns this frontend's shard declaration.
func (c *Cluster) Shard() federation.Shard { return c.fed.shard }

// childSnapshot returns the registered children sorted by shard name —
// the deterministic fan-out order every merged query uses.
func (f *fedState) childSnapshot() []*fedChild {
	f.mu.Lock()
	out := make([]*fedChild, 0, len(f.children))
	for _, ch := range f.children {
		out = append(out, ch)
	}
	f.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].shard.Name < out[j].shard.Name })
	return out
}

// markResult records a fan-out attempt's outcome on the child.
func (ch *fedChild) markResult(ok bool) {
	ch.mu.Lock()
	ch.dark = !ok
	if ok {
		ch.lastSeen = time.Now()
	}
	ch.mu.Unlock()
}

// ingest stamps forwarded events with the child's shard (in place: the
// caller relays the same batch further up) and appends them to the child's
// bounded mirror.
func (ch *fedChild) ingest(events []lifecycle.Event) {
	ch.mu.Lock()
	for i := range events {
		e := &events[i]
		if e.Shard == "" {
			e.Shard = ch.shard.Name
		}
		if e.Shard == ch.shard.Name && e.Seq > ch.lastSeq {
			ch.lastSeq = e.Seq
		}
		ch.mirror.Push(*e)
	}
	ch.forwarded += uint64(len(events))
	ch.lastSeen = time.Now()
	ch.dark = false
	ch.mu.Unlock()
}

// mirrorEvents returns the child's forwarded history matching the filter
// — the stale view a merged query falls back to when the child is dark.
func (ch *fedChild) mirrorEvents(f lifecycle.Filter) []lifecycle.Event {
	ch.mu.Lock()
	defer ch.mu.Unlock()
	return ch.mirror.Select(f.Limit, f.Matches)
}

// getForwarder reads the child-side forwarder (nil until startForwarder).
func (f *fedState) getForwarder() *lifecycle.Forwarder {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.forwarder
}

// upstreamClient builds an apiclient for this frontend's parent.
func (f *fedState) upstreamClient() *apiclient.Client {
	return &apiclient.Client{
		Base:  f.parentURL,
		Actor: "federation/" + f.shard.Name,
		HTTP:  f.client,
	}
}

// registerWithParent announces this child's shard and URL upstream. New
// calls it synchronously: a child that cannot reach its declared parent
// fails construction the same way a failed parent mirror does.
func (f *fedState) registerWithParent() error {
	params := url.Values{
		"shard": {f.shard.String()},
		"url":   {f.c.baseURL},
	}
	if f.shard.Membership != 0 {
		params.Set("membership", fmt.Sprint(f.shard.Membership))
	}
	return f.upstreamClient().Post(f.c.ctx, "federation/register", params, nil)
}

// startForwarder begins streaming this child's lifecycle events to the
// parent. The goroutine is tracked on the cluster WaitGroup so Close
// remains leak-free.
func (f *fedState) startForwarder() {
	cl := f.upstreamClient()
	query := url.Values{"shard": {f.shard.Name}}
	// The forwarder posts what is still queued on its way out, after the
	// cluster context is cancelled; the bounded client is what ends a post.
	ctx := context.WithoutCancel(f.c.ctx)
	fw := lifecycle.StartForwarder(f.c.ctx, f.c.events, lifecycle.ForwarderOptions{FlushInterval: 20 * time.Millisecond},
		func(events []lifecycle.Event) error {
			return cl.PostJSON(ctx, "federation/events", query, events, nil)
		})
	f.mu.Lock()
	f.forwarder = fw
	f.mu.Unlock()
	f.c.wg.Add(1)
	go func() {
		defer f.c.wg.Done()
		<-fw.Done()
	}()
}

// forwardFacts relays a facts report upstream under this frontend's own
// shard name, so the parent's merged inventory carries subtree provenance.
// Best-effort and asynchronous — a dark parent must never stall a node's
// first boot — but accounted, and the goroutine is tracked on the cluster
// WaitGroup and carries the cluster context so Close stays leak-free.
func (f *fedState) forwardFacts(facts hardware.Facts) {
	if f.parentURL == "" {
		return
	}
	f.c.wg.Add(1)
	go func() {
		defer f.c.wg.Done()
		if err := f.upstreamClient().PostJSON(f.c.ctx, "facts", url.Values{"shard": {f.shard.Name}}, facts, nil); err != nil {
			f.factsForwardErrors.Add(1)
			return
		}
		f.factsForwarded.Add(1)
	}()
}

// FederationChildInfo is one child's row in the /v1/federation view.
type FederationChildInfo struct {
	Shard      federation.Shard `json:"shard"`
	URL        string           `json:"url"`
	Registered time.Time        `json:"registered"`
	LastSeen   time.Time        `json:"last_seen"`
	Forwarded  uint64           `json:"forwarded"`
	LastSeq    uint64           `json:"last_seq,omitempty"`
	Dark       bool             `json:"dark,omitempty"`
	Mirrored   int              `json:"mirrored"`
}

// FederationResponse is the /v1/federation payload.
type FederationResponse struct {
	Role     string                `json:"role"`
	Shard    federation.Shard      `json:"shard"`
	Parent   string                `json:"parent,omitempty"`
	Children []FederationChildInfo `json:"children"`
	Received uint64                `json:"received"`
	// Child-side forwarder traffic; all zero on parents and standalones.
	Forwarded     uint64 `json:"forwarded,omitempty"`
	ForwardErrors uint64 `json:"forward_errors,omitempty"`
	ForwardDrops  uint64 `json:"forward_drops,omitempty"`
	// Child-side facts relays (upstream inventory provenance).
	FactsForwarded     uint64 `json:"facts_forwarded,omitempty"`
	FactsForwardErrors uint64 `json:"facts_forward_errors,omitempty"`
}

func (c *Cluster) opFederation(r *http.Request) (interface{}, *apiError) {
	resp := FederationResponse{
		Role:     c.Role(),
		Shard:    c.fed.shard,
		Parent:   c.fed.parentURL,
		Children: []FederationChildInfo{},
		Received: c.fed.received.Load(),
	}
	for _, ch := range c.fed.childSnapshot() {
		ch.mu.Lock()
		resp.Children = append(resp.Children, FederationChildInfo{
			Shard: ch.shard, URL: ch.url, Registered: ch.registered,
			LastSeen: ch.lastSeen, Forwarded: ch.forwarded,
			LastSeq: ch.lastSeq, Dark: ch.dark, Mirrored: ch.mirror.Len(),
		})
		ch.mu.Unlock()
	}
	if fw := c.fed.getForwarder(); fw != nil {
		resp.Forwarded, resp.ForwardErrors, resp.ForwardDrops = fw.Stats()
	}
	resp.FactsForwarded = c.fed.factsForwarded.Load()
	resp.FactsForwardErrors = c.fed.factsForwardErrors.Load()
	return resp, nil
}

// opFedRegister admits (or re-admits) a child frontend. Re-registration
// under the same shard name replaces the URL and keeps going — a child
// restart re-announces itself; its mirror restarts empty because the new
// life's bus restarts its sequence numbers.
func (c *Cluster) opFedRegister(r *http.Request) (interface{}, *apiError) {
	spec := r.FormValue("shard")
	if spec == "" {
		return nil, apiErrorf(http.StatusBadRequest, "missing_parameter", "missing shard parameter")
	}
	shard, err := federation.ParseShard(spec)
	if err != nil {
		return nil, apiErrorf(http.StatusBadRequest, "bad_parameter", "%v", err)
	}
	if m := r.FormValue("membership"); m != "" {
		mm, aerr := formInt(r, "membership", 0, 0)
		if aerr != nil {
			return nil, aerr
		}
		shard.Membership = mm
	}
	childURL := r.FormValue("url")
	u, err := url.Parse(childURL)
	if err != nil || (u.Scheme != "http" && u.Scheme != "https") || u.Host == "" {
		return nil, apiErrorf(http.StatusBadRequest, "bad_parameter",
			"parameter url: %q is not an absolute http URL", childURL)
	}
	if shard.Name == c.fed.shard.Name {
		return nil, apiErrorf(http.StatusConflict, "shard_conflict",
			"shard %q is this frontend's own shard", shard.Name)
	}
	ch := &fedChild{
		shard:      shard,
		url:        strings.TrimSuffix(childURL, "/"),
		registered: time.Now(),
		lastSeen:   time.Now(),
		mirror:     lifecycle.NewRing[lifecycle.Event](fedMirrorRing),
	}
	ch.client = &apiclient.Client{Base: ch.url, Actor: "federation/" + c.fed.shard.Name, HTTP: c.fed.client}
	c.fed.mu.Lock()
	c.fed.children[shard.Name] = ch
	c.fed.mu.Unlock()
	c.fed.registrations.Add(1)
	c.events.Publish(lifecycle.Event{
		Node: "frontend-0", Phase: lifecycle.PhaseRun, Type: lifecycle.EventUp,
		Source: "federation", Detail: fmt.Sprintf("child frontend %s registered (%s)", shard, ch.url),
	})
	return map[string]interface{}{"status": "registered", "parent": c.fed.shard.Name}, nil
}

// opFedEvents is the upstream forwarder's sink: POST ingests a JSON array
// of a registered child's events into its mirror (and relays them further
// up when this frontend is itself a child); GET reads the ingest totals.
// The endpoint accepts POST without auditing each batch — forwarding is
// telemetry, not an administrative mutation.
func (c *Cluster) opFedEvents(r *http.Request) (interface{}, *apiError) {
	if r.Method != http.MethodPost {
		return map[string]uint64{"received": c.fed.received.Load()}, nil
	}
	shardName := r.URL.Query().Get("shard")
	c.fed.mu.Lock()
	ch := c.fed.children[shardName]
	c.fed.mu.Unlock()
	if ch == nil {
		return nil, apiErrorf(http.StatusNotFound, "unknown_shard",
			"shard %q is not registered; POST /v1/federation/register first", shardName)
	}
	var events []lifecycle.Event
	dec := json.NewDecoder(http.MaxBytesReader(nil, r.Body, 16<<20))
	if err := dec.Decode(&events); err != nil {
		return nil, apiErrorf(http.StatusBadRequest, "bad_body", "decoding event batch: %v", err)
	}
	ch.ingest(events)
	c.fed.received.Add(uint64(len(events)))
	if fw := c.fed.getForwarder(); fw != nil {
		// Mid-tier: relay the grandchild's events (shard-stamped by ingest)
		// further up the hierarchy.
		fw.Enqueue(events)
	}
	return map[string]interface{}{"status": "accepted", "events": len(events)}, nil
}

// --- merged query plane -------------------------------------------------

// fanOut runs call against every registered child concurrently — one bounded
// request each — and records the outcome on the child: one that answered is
// marked seen; one that did not is marked dark, counted in fanoutErrors and
// given a failed ShardStatus carrying the error. The merged reads below flag
// such a shard as partial; a dark child never turns them into an error.
func fanOut[T any](f *fedState, children []*fedChild, call func(ch *fedChild, out *T) error) ([]T, []federation.ShardStatus) {
	resps := make([]T, len(children))
	sts := make([]federation.ShardStatus, len(children))
	var wg sync.WaitGroup
	for i, ch := range children {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sts[i] = federation.ShardStatus{Shard: ch.shard.Name, URL: ch.url, OK: true}
			if err := call(ch, &resps[i]); err != nil {
				sts[i].OK, sts[i].Error = false, err.Error()
				f.fanoutErrors.Add(1)
			}
			ch.markResult(sts[i].OK)
		}()
	}
	wg.Wait()
	return resps, sts
}

// NodesResponse is the /v1/nodes payload: this frontend's population
// joined with live state, plus — on a parent — the merged shard listings
// with per-shard provenance.
type NodesResponse struct {
	Shard   string                   `json:"shard"`
	Nodes   []federation.NodeRow     `json:"nodes"`
	Shards  []federation.ShardStatus `json:"shards,omitempty"`
	Partial bool                     `json:"partial,omitempty"`
	Deduped int                      `json:"deduped,omitempty"`
}

// appendJSON renders every field as json.Marshal does, so a parent's merged
// reply takes the same path as a leaf's.
func (n NodesResponse) appendJSON(b []byte, flush func([]byte) []byte) []byte {
	b = federation.AppendJSONString(append(b, `{"shard":`...), n.Shard, nil)
	if n.Nodes == nil {
		b = append(b, `,"nodes":null`...)
	} else {
		b = append(b, `,"nodes":[`...)
		for i := range n.Nodes {
			if i > 0 {
				b = append(b, ',')
			}
			b = flush(n.Nodes[i].AppendJSON(b))
		}
		b = append(b, ']')
	}
	b = appendShards(b, n.Shards, n.Partial)
	if n.Deduped != 0 {
		b = strconv.AppendInt(append(b, `,"deduped":`...), int64(n.Deduped), 10)
	}
	return append(b, '}')
}

// appendShards appends the provenance fields merged replies share, each
// omitted when empty. There is a status per child, not per node, so
// encoding/json renders them.
func appendShards(b []byte, shards []federation.ShardStatus, partial bool) []byte {
	if len(shards) > 0 {
		enc, _ := json.Marshal(shards) // strings, booleans and a count: it cannot fail
		b = append(append(b, `,"shards":`...), enc...)
	}
	if partial {
		b = append(b, `,"partial":true`...)
	}
	return b
}

// opNodes lists the nodes table in id order, each row joined with the
// node's live state and the recency a cross-shard merge compares.
func (c *Cluster) opNodes(r *http.Request) (interface{}, *apiError) {
	list, err := clusterdb.ListNodes(c.DB, "")
	if err != nil {
		return nil, apiErrorf(http.StatusInternalServerError, "db_error", "%v", err)
	}
	last := c.events.LastEvents()
	resp := NodesResponse{Shard: c.fed.shard.Name, Nodes: make([]federation.NodeRow, list.Len())}
	// One hold of c.mu for the listing, not one per row; State takes the
	// node's own lock inside it, the c.mu → node.mu order there has always
	// been. The reply is written after the hold, by writeV1Data.
	c.mu.Lock()
	defer c.mu.Unlock()
	for i := range resp.Nodes {
		n := list.At(i)
		seen, ok := last[n.MAC]
		if !ok {
			seen = last[n.Name]
		}
		resp.Nodes[i] = federation.NodeRow{
			Name: n.Name, MAC: n.MAC, IP: n.IP, Membership: n.Membership,
			Rack: n.Rack, Rank: n.Rank, Arch: n.Arch, CPUs: n.CPUs,
			LastSeq: seen.Seq, LastEvent: seen.Time,
		}
		if tracked, ok := c.nodes[n.MAC]; ok {
			resp.Nodes[i].State = string(tracked.State())
		}
	}
	return resp, nil
}

// fanNodes merges every child's /v1/nodes into the local listing. A dark
// child contributes a failed ShardStatus and flips Partial; it never
// turns the merged read into an error.
func (c *Cluster) fanNodes(r *http.Request, payload interface{}) (interface{}, *apiError) {
	children := c.fed.childSnapshot()
	local := payload.(NodesResponse)
	if len(children) == 0 {
		return local, nil
	}
	resps, sts := fanOut(c.fed, children, func(ch *fedChild, out *NodesResponse) error {
		return ch.client.Get(r.Context(), "nodes", nil, out)
	})
	batches := []federation.NodeBatch{{Shard: local.Shard, Nodes: local.Nodes}}
	merged := NodesResponse{Shard: local.Shard}
	for i, st := range sts {
		if !st.OK {
			merged.Partial = true
			merged.Shards = append(merged.Shards, st)
			continue
		}
		st.Count = len(resps[i].Nodes)
		merged.Partial = merged.Partial || resps[i].Partial
		batches = append(batches, federation.NodeBatch{Shard: st.Shard, Nodes: resps[i].Nodes})
		merged.Shards = append(append(merged.Shards, st), resps[i].Shards...)
		merged.Deduped += resps[i].Deduped
	}
	nodes, deduped := federation.MergeNodes(batches)
	merged.Nodes = nodes
	merged.Deduped += deduped
	c.fed.deduped.Add(uint64(deduped))
	return merged, nil
}

// EventsResponse is the /v1/events payload. The federation fields are
// empty on a standalone frontend.
type EventsResponse struct {
	Events  []lifecycle.Event        `json:"events"`
	Seq     uint64                   `json:"seq"`
	Dropped uint64                   `json:"dropped"`
	Shard   string                   `json:"shard,omitempty"`
	Shards  []federation.ShardStatus `json:"shards,omitempty"`
	Partial bool                     `json:"partial,omitempty"`
	Deduped int                      `json:"deduped,omitempty"`
}

// fanEvents merges child event streams into the local view: live child
// queries when possible, each child's forwarded mirror (flagged stale)
// when it is dark, deduplicated on (MAC, seq) so a node whose child
// re-registered mid-query cannot appear twice.
func (c *Cluster) fanEvents(r *http.Request, payload interface{}) (interface{}, *apiError) {
	children := c.fed.childSnapshot()
	local := payload.(EventsResponse)
	if len(children) == 0 {
		return local, nil
	}
	filter, _ := c.eventFilter(r) // opEvents ran first and rejected a bad one
	params := url.Values{}
	for k, vs := range r.URL.Query() {
		params[k] = vs
	}
	resps, sts := fanOut(c.fed, children, func(ch *fedChild, out *EventsResponse) error {
		return ch.client.Get(r.Context(), "events", params, out)
	})
	merged := EventsResponse{Seq: local.Seq, Dropped: local.Dropped, Shard: c.fed.shard.Name}
	batches := []federation.EventBatch{{Shard: c.fed.shard.Name, Events: local.Events}}
	for i, st := range sts {
		if !st.OK {
			// Dark child: fall back to the forwarded mirror, honestly flagged.
			mirror := children[i].mirrorEvents(filter)
			st.Stale, st.Count = true, len(mirror)
			merged.Partial = true
			batches = append(batches, federation.EventBatch{Shard: st.Shard, Events: mirror})
			merged.Shards = append(merged.Shards, st)
			continue
		}
		st.Count = len(resps[i].Events)
		merged.Partial = merged.Partial || resps[i].Partial
		merged.Deduped += resps[i].Deduped
		batches = append(batches, federation.EventBatch{Shard: st.Shard, Events: resps[i].Events})
		merged.Shards = append(append(merged.Shards, st), resps[i].Shards...)
	}
	events, deduped := federation.MergeEvents(batches, filter.Limit)
	merged.Events = events
	merged.Deduped += deduped
	c.fed.deduped.Add(uint64(deduped))
	return merged, nil
}

// DBReportResponse is the /v1/dbreport payload: one of clusterdb's
// canonical text reports, concatenated across shards on a parent.
type DBReportResponse struct {
	Shard   string                   `json:"shard"`
	Report  string                   `json:"report"`
	Kind    string                   `json:"kind"`
	Shards  []federation.ShardStatus `json:"shards,omitempty"`
	Partial bool                     `json:"partial,omitempty"`
}

func (d DBReportResponse) appendJSON(b []byte, flush func([]byte) []byte) []byte {
	b = federation.AppendJSONString(append(b, `{"shard":`...), d.Shard, nil)
	b = federation.AppendJSONString(append(b, `,"report":`...), d.Report, flush)
	b = federation.AppendJSONString(append(b, `,"kind":`...), d.Kind, nil)
	return append(appendShards(b, d.Shards, d.Partial), '}')
}

// opDBReport serves the dbreport tool's views over the control plane, so
// the offline cmd/dbreport and the live API render the same text — and a
// parent can concatenate every shard's report under one heading each.
func (c *Cluster) opDBReport(r *http.Request) (interface{}, *apiError) {
	kind := formOr(r, "report", "nodes")
	var report string
	var err error
	switch kind {
	case "nodes":
		report, err = clusterdb.NodesTableReport(c.DB)
	case "memberships":
		report, err = clusterdb.MembershipsTableReport(c.DB)
	case "hosts":
		report, err = clusterdb.HostsReport(c.DB)
	case "dhcp":
		report, err = clusterdb.DHCPReport(c.DB)
	case "pbs":
		report, err = clusterdb.PBSNodesReport(c.DB)
	default:
		return nil, apiErrorf(http.StatusBadRequest, "bad_parameter",
			"parameter report: unknown report %q (nodes|memberships|hosts|dhcp|pbs)", kind)
	}
	if err != nil {
		return nil, apiErrorf(http.StatusInternalServerError, "report_failed", "%v", err)
	}
	return DBReportResponse{Shard: c.fed.shard.Name, Report: report, Kind: kind}, nil
}

// fanDBReport concatenates child reports under per-shard headings.
func (c *Cluster) fanDBReport(r *http.Request, payload interface{}) (interface{}, *apiError) {
	children := c.fed.childSnapshot()
	local := payload.(DBReportResponse)
	if len(children) == 0 {
		return local, nil
	}
	params := url.Values{"report": {local.Kind}}
	resps, sts := fanOut(c.fed, children, func(ch *fedChild, out *DBReportResponse) error {
		return ch.client.Get(r.Context(), "dbreport", params, out)
	})
	var b strings.Builder
	fmt.Fprintf(&b, "== shard %s ==\n%s", local.Shard, local.Report)
	merged := DBReportResponse{Shard: local.Shard, Kind: local.Kind}
	for i, st := range sts {
		if !st.OK {
			merged.Partial = true
			merged.Shards = append(merged.Shards, st)
			fmt.Fprintf(&b, "== shard %s UNAVAILABLE: %s ==\n", st.Shard, st.Error)
			continue
		}
		merged.Partial = merged.Partial || resps[i].Partial
		merged.Shards = append(append(merged.Shards, st), resps[i].Shards...)
		// A child with its own children already carries headings.
		if strings.HasPrefix(resps[i].Report, "== shard ") {
			b.WriteString(resps[i].Report)
		} else {
			fmt.Fprintf(&b, "== shard %s ==\n%s", st.Shard, resps[i].Report)
		}
	}
	merged.Report = b.String()
	return merged, nil
}

// --- cascading re-mirror ------------------------------------------------

// Remirror re-replicates this frontend's parent distribution using the
// previous mirror as the delta baseline: packages whose digests match are
// reused without a body fetch, so an unchanged tree costs manifest
// traffic only. The rebuilt distribution is bound in place (the §3.3
// upgrade idiom) — the serving side reads through c.Dist, so new installs
// and downstream mirrors see it immediately with no server swap.
func (c *Cluster) Remirror() (dist.MirrorReport, error) {
	if c.cfg.ParentURL == "" {
		return dist.MirrorReport{}, fmt.Errorf("core: no parent distribution to re-mirror")
	}
	mirror, report, err := dist.Mirror(c.ctx, c.cfg.ParentURL, "parent-mirror", dist.MirrorOptions{Baseline: c.mirrorRepo})
	if err != nil {
		return dist.MirrorReport{}, fmt.Errorf("core: re-mirroring parent distribution: %w", err)
	}
	sources := append([]dist.Source{{Name: "parent-mirror", Repo: mirror}}, c.localSources...)
	rebuilt := dist.Build(c.cfg.Name, c.cfg.Framework, sources...)
	*c.Dist = *rebuilt
	c.mirrorRepo = mirror
	c.mirrorReport = &report
	c.events.Publish(lifecycle.Event{
		Node: "frontend-0", Phase: lifecycle.PhaseRun, Type: lifecycle.EventUp,
		Source: "federation", Detail: fmt.Sprintf("re-mirrored parent: %d listed, %d reused, %d fetched",
			report.Listed, report.Skipped, report.Fetched),
	})
	return report, nil
}

// RemirrorResult is the /v1/federation/remirror payload: this level's
// delta report plus every child's, recursively — the whole cascade from
// one POST at the top.
type RemirrorResult struct {
	Shard    string                   `json:"shard"`
	Mirror   *dist.MirrorReport       `json:"mirror,omitempty"` // nil at the hierarchy root
	Shards   []federation.ShardStatus `json:"shards,omitempty"`
	Partial  bool                     `json:"partial,omitempty"`
	Children []RemirrorResult         `json:"children,omitempty"`
}

func (c *Cluster) opFedRemirror(r *http.Request) (interface{}, *apiError) {
	res := RemirrorResult{Shard: c.fed.shard.Name}
	if c.cfg.ParentURL != "" {
		report, err := c.Remirror()
		if err != nil {
			return nil, apiErrorf(http.StatusBadGateway, "remirror_failed", "%v", err)
		}
		res.Mirror = &report
	}
	return res, nil
}

// fanRemirror cascades the re-mirror to children *after* this level has
// re-mirrored (opFedRemirror ran first), so each level pulls from an
// already-updated parent — top-down, exactly like the distribution tree.
func (c *Cluster) fanRemirror(r *http.Request, payload interface{}) (interface{}, *apiError) {
	children := c.fed.childSnapshot()
	local := payload.(RemirrorResult)
	if len(children) == 0 {
		return local, nil
	}
	resps, sts := fanOut(c.fed, children, func(ch *fedChild, out *RemirrorResult) error {
		return ch.client.Post(r.Context(), "federation/remirror", nil, out)
	})
	for i, st := range sts {
		local.Shards = append(local.Shards, st)
		if st.OK {
			local.Children = append(local.Children, resps[i])
		}
		local.Partial = local.Partial || !st.OK || resps[i].Partial
	}
	return local, nil
}

// --- scrape federation --------------------------------------------------

// metricsHandler serves /metrics. A parent aggregates child expositions
// into its own with per-shard labels; a dark child's last successful
// exposition is re-served in place of a live scrape (its series keep their
// last values rather than vanishing), with rocks_federation_child_up at 0
// and rocks_federation_child_last_scrape_seconds growing so alerting can
// see the staleness. The merged text still satisfies the strict parser,
// histograms included.
func (c *Cluster) metricsHandler(w http.ResponseWriter, r *http.Request) {
	var own strings.Builder
	c.metricsReg.WriteText(&own)
	children := c.fed.childSnapshot()
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	if len(children) == 0 {
		io.WriteString(w, own.String())
		return
	}
	texts, sts := fanOut(c.fed, children, func(ch *fedChild, out *string) error {
		resp, err := c.fed.client.Get(ch.url + "/metrics")
		if err != nil {
			return err
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(io.LimitReader(resp.Body, 16<<20))
		if err != nil || resp.StatusCode != http.StatusOK {
			return fmt.Errorf("scraping %s: HTTP %d (%v)", ch.url, resp.StatusCode, err)
		}
		*out = string(body)
		return nil
	})
	var shards []federation.ShardExposition
	for i, ch := range children {
		if !sts[i].OK {
			ch.mu.Lock()
			stale := ch.lastExpo
			ch.mu.Unlock()
			if stale != "" {
				shards = append(shards, federation.ShardExposition{Shard: ch.shard.Name, Text: stale})
			}
			continue
		}
		ch.mu.Lock()
		ch.lastExpo = texts[i]
		ch.lastExpoAt = time.Now()
		ch.mu.Unlock()
		shards = append(shards, federation.ShardExposition{Shard: ch.shard.Name, Text: texts[i]})
	}
	io.WriteString(w, federation.MergeExpositions(own.String(), shards))
}
