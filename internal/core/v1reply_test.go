package core

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"net/url"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"rocks/internal/clusterdb"
	"rocks/internal/federation"
	"rocks/internal/hardware"
	"rocks/internal/lifecycle"
)

// The three /v1 replies as long as the fleet (nodes, sql, dbreport) append
// their own JSON. These tests hold them to encoding/json byte for byte, pin
// what a reply allocates, and read the listing while the fleet changes.

// discovered returns a frontend whose database holds rows discovered compute
// nodes; two events a discovery more than fill the ring at 2 048 rows.
func discovered(tb testing.TB, rows int) *Cluster {
	tb.Helper()
	c, err := New(Config{Name: "Meteor", DHCPRetry: 2 * time.Millisecond, DisableEKV: true})
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(c.Close)
	for rack, i := 100, 0; i < rows; rack++ {
		ie, err := c.StartInsertEthers(clusterdb.MembershipCompute, rack)
		if err != nil {
			tb.Fatal(err)
		}
		for rank := 0; rank < 64 && i < rows; rank, i = rank+1, i+1 {
			if err := ie.Discover(fmt.Sprintf("02:20:00:%02x:%02x:%02x", i>>16, i>>8&0xff, i&0xff)); err != nil {
				tb.Fatal(err)
			}
		}
		ie.Stop()
	}
	if err := c.FlushReports(); err != nil {
		tb.Fatal(err)
	}
	return c
}

// sink is a ResponseWriter that counts a reply and keeps none of it.
type sink struct {
	header http.Header
	n      int
}

func (s *sink) Header() http.Header         { return s.header }
func (s *sink) WriteHeader(int)             {}
func (s *sink) Write(p []byte) (int, error) { s.n += len(p); return len(p), nil }

const joinQuery = `select nodes.name from nodes, memberships where nodes.membership = memberships.id and memberships.compute = 'yes'`

// TestFleetSizedRepliesAllocate pins the shape of the fleet-sized reads at
// 2 048 rows and a full event ring, in counts that repeat on any host. The
// listing was 8 300 allocations and 2.9 MB when it went through SQL, an
// Event per identity and reflection; what is left is the rows the fan-out
// merges (160 bytes each), the recency index (one presized map) and the view
// of the row list. A report was 3.7 times its body in allocations.
func TestFleetSizedRepliesAllocate(t *testing.T) {
	const rows = 2048
	c := discovered(t, rows)
	if n := c.events.Recent(lifecycle.Filter{}); len(n) != lifecycle.DefaultRingSize {
		t.Fatalf("the ring holds %d events, want it full (%d)", len(n), lifecycle.DefaultRingSize)
	}
	h := c.Handler()
	// measure serves target repeatedly and returns allocations, bytes
	// allocated and body length, each per request.
	measure := func(target string) (allocs, allocated float64, body int) {
		req := httptest.NewRequest("GET", target, nil)
		w := &sink{header: http.Header{}}
		serve := func() { w.n = 0; h.ServeHTTP(w, req) }
		allocs = testing.AllocsPerRun(20, serve)
		const runs = 20
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < runs; i++ {
			serve()
		}
		runtime.ReadMemStats(&after)
		return allocs, float64(after.TotalAlloc-before.TotalAlloc) / runs, w.n
	}

	allocs, allocated, body := measure("/v1/nodes")
	t.Logf("/v1/nodes: %.0f allocations, %.0f KB allocated, %d KB body", allocs, allocated/1024, body/1024)
	if allocs > 64 || allocated > 1<<20 {
		t.Errorf("/v1/nodes over %d rows: %.0f allocations and %.0f bytes a request, want at most 64 and 1 MB", rows, allocs, allocated)
	}

	allocs, allocated, body = measure("/v1/dbreport?report=dhcp")
	t.Logf("/v1/dbreport?report=dhcp: %.0f allocations, %.0f KB allocated, %d KB body", allocs, allocated/1024, body/1024)
	if allocated > 2*float64(body) {
		t.Errorf("dbreport?report=dhcp allocates %.0f bytes for a body of %d, want at most twice the body", allocated, body)
	}

	res, err := c.DB.Query(joinQuery)
	if err != nil || len(res.Rows) != rows {
		t.Fatalf("the join returned %d rows, %v; want %d", len(res.Rows), err, rows)
	}
	allocs = testing.AllocsPerRun(20, func() { c.DB.Query(joinQuery) })
	t.Logf("the join: %.0f allocations for %d rows", allocs, rows)
	if allocs > 1.2*rows {
		t.Errorf("the join allocates %.0f times for %d result rows, want at most 1.2 a row", allocs, rows)
	}
}

// reply serves one GET through the frontend's handler and returns the body.
func reply(t *testing.T, c *Cluster, target string) []byte {
	t.Helper()
	rec := httptest.NewRecorder()
	c.Handler().ServeHTTP(rec, httptest.NewRequest("GET", target, nil))
	if rec.Code != http.StatusOK || rec.Header().Get("Content-Type") != "application/json" {
		t.Fatalf("GET %s: %d %s", target, rec.Code, rec.Header().Get("Content-Type"))
	}
	return rec.Body.Bytes()
}

// never is the flush of a buffer with no limit.
func never(b []byte) []byte { return b }

// TestFleetSizedRepliesAreWhole: a 2 048-row reply, which leaves through the
// fixed buffer in some twenty-five pieces, is the envelope around exactly
// what the payload appends when nothing is ever flushed, and that is exactly
// what encoding/json renders for the payload.
func TestFleetSizedRepliesAreWhole(t *testing.T) {
	c := discovered(t, 2048)
	for _, q := range []struct {
		target string
		run    func(*http.Request) (interface{}, *apiError)
	}{
		{"/v1/nodes", c.opNodes},
		{"/v1/sql?q=" + url.QueryEscape(joinQuery), c.opSQL},
		{"/v1/sql?q=" + url.QueryEscape("select * from nodes"), c.opSQL},
		{"/v1/dbreport?report=dhcp", c.opDBReport},
		{"/v1/dbreport?report=hosts", c.opDBReport},
		{"/v1/dbreport?report=nodes", c.opDBReport},
	} {
		payload, aerr := q.run(httptest.NewRequest("GET", q.target, nil))
		if aerr != nil {
			t.Fatalf("%s: %v", q.target, aerr.Message)
		}
		unflushed := payload.(jsonAppender).appendJSON(nil, never)
		if want, err := json.Marshal(payload); err != nil || !bytes.Equal(unflushed, want) {
			t.Errorf("%s: the payload appends %d bytes, encoding/json renders %d (%v)", q.target, len(unflushed), len(want), err)
		}
		body := reply(t, c, q.target)
		if want := `{"data":` + string(unflushed) + "}\n"; string(body) != want {
			t.Errorf("%s: the reply (%d bytes) is not the envelope around the payload (%d bytes)", q.target, len(body), len(want))
		}
	}
}

// checkAgainstEncodingJSON holds one payload to encoding/json: written
// through the envelope writer (so through the real buffer and its flushes) it
// is valid JSON, byte for byte what json.Marshal renders, and decodes to what
// that decodes to.
func checkAgainstEncodingJSON(t *testing.T, payload jsonAppender) {
	t.Helper()
	want, err := json.Marshal(payload)
	if err != nil {
		t.Fatalf("encoding/json refuses %+v: %v", payload, err)
	}
	rec := httptest.NewRecorder()
	writeV1Data(rec, payload)
	got := bytes.TrimSuffix(bytes.TrimPrefix(rec.Body.Bytes(), []byte(`{"data":`)), []byte("}\n"))
	if !json.Valid(rec.Body.Bytes()) || len(got) != rec.Body.Len()-len(`{"data":}`)-1 {
		t.Fatalf("%T: the reply is not a JSON envelope: %.200q", payload, rec.Body.Bytes())
	}
	if !bytes.Equal(got, want) {
		t.Errorf("%T appends\n %.300q\nencoding/json renders\n %.300q", payload, got, want)
	}
	back, wantBack := reflect.New(reflect.TypeOf(payload)), reflect.New(reflect.TypeOf(payload))
	if err := json.Unmarshal(got, back.Interface()); err != nil {
		t.Fatalf("%T does not decode: %v", payload, err)
	}
	if err := json.Unmarshal(want, wantBack.Interface()); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(back.Elem().Interface(), wantBack.Elem().Interface()) {
		t.Errorf("%T decodes to\n %+v\nencoding/json's bytes decode to\n %+v", payload, back.Elem(), wantBack.Elem())
	}
}

// FuzzV1Reply builds the three self-appending payloads, leaf and merged-parent
// shapes alike, from arbitrary bytes, integers and times, and holds each to
// encoding/json. text is every string field: cut at its newlines for the short
// ones, whole for the report and the result. shape's bits choose how many
// rows, whether they carry the optional fields, whether the reply carries
// shard provenance, and a zero time.
func FuzzV1Reply(f *testing.F) {
	// The checked-in corpus (testdata/fuzz/FuzzV1Reply) holds the bytes an
	// escaper gets wrong: a quote, a backslash, </script>, a NUL, a lone
	// 0xFF, U+2028, and the shapes: no rows, the zero time. The report that
	// crosses the buffer four times is seeded here.
	f.Add(bytes.Repeat([]byte("host compute-0-0 {\n\toption host-name \"compute-0-0\";\n}\n"), 70000/55), int64(7), int64(1e9), uint8(0xff))
	f.Fuzz(func(t *testing.T, text []byte, n, when int64, shape uint8) {
		parts := strings.Split(string(text), "\n")
		part := func(i int) string { return parts[i%len(parts)] }
		// Any instant encoding/json accepts: years 0 to 9999, UTC or a zone.
		const year1, span = -62135596800, 9998 * 365 * 86400
		stamp := time.Unix(year1+(when%span+span)%span, n&0x3fffffff).UTC()
		if shape&0x40 != 0 {
			stamp = stamp.In(time.FixedZone("", int(n%86400)/60*60))
		}
		if shape&0x80 == 0 {
			stamp = time.Time{}
		}
		var rows []federation.NodeRow
		if shape&3 != 0 {
			rows = []federation.NodeRow{}
		}
		for i := 1; i < int(shape&3); i++ {
			row := federation.NodeRow{Name: part(i), MAC: part(i + 1), IP: part(i + 2),
				Membership: int(n), Rack: -int(n >> 8), Rank: i, LastEvent: stamp}
			if shape&4 != 0 {
				row.Arch, row.State, row.Shard = part(i+3), part(i+4), part(i+5)
				row.CPUs, row.LastSeq = int(n>>16), uint64(n)
			}
			rows = append(rows, row)
		}
		var shards []federation.ShardStatus
		if shape&8 != 0 {
			shards = []federation.ShardStatus{
				{Shard: part(6), URL: part(7), OK: true, Count: int(n)},
				{Shard: part(8), Error: string(text), Stale: shape&16 != 0},
			}
		}
		checkAgainstEncodingJSON(t, NodesResponse{Shard: part(0), Nodes: rows, Shards: shards, Partial: shape&16 != 0, Deduped: int(n>>4) * int(shape>>5&1)})
		checkAgainstEncodingJSON(t, DBReportResponse{Shard: part(0), Report: string(text), Kind: part(1), Shards: shards, Partial: shape&16 != 0})
		checkAgainstEncodingJSON(t, SQLResponse{Result: string(text), Exec: shape&32 != 0})
	})
}

// TestNodesUnderWriters reads /v1/nodes from eight connections for as long
// as a fleet reinstalls and an insert-ethers session discovers (run it with
// -race). Every reply must decode, list every node registered before the
// readers started, each once and in id order, and a node's last_seq must
// never go backwards between two replies on one connection.
func TestNodesUnderWriters(t *testing.T) {
	live := 64
	if testing.Short() {
		live = 8
	}
	c, err := New(Config{Name: "Meteor", DHCPRetry: 2 * time.Millisecond, DisableEKV: true})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	profiles := make([]hardware.Profile, live)
	for i := range profiles {
		profiles[i] = hardware.PIIICompute(c.MACs(), 733)
	}
	nodes, err := c.IntegrateNodes(profiles, clusterdb.MembershipCompute, 0, 2*time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	registered, err := clusterdb.Nodes(c.DB, "")
	if err != nil {
		t.Fatal(err)
	}

	stop, reinstalled := make(chan struct{}), make(chan struct{})
	var writers, readers sync.WaitGroup
	writers.Add(2)
	go func() { // the fleet reinstalls, eight nodes at a time, three times
		defer writers.Done()
		defer close(reinstalled)
		for wave := 0; wave < 3; wave++ {
			batch := nodes[wave*8%live : wave*8%live+8]
			since := c.events.Seq()
			for _, n := range batch {
				if err := c.ShootNode(n.Name()); err != nil {
					t.Errorf("shoot %s: %v", n.Name(), err)
					return
				}
			}
			for _, n := range batch {
				ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
				_, err := c.events.WaitFor(ctx, lifecycle.Filter{Node: n.Name(), Type: lifecycle.EventUp, SinceSeq: since})
				cancel()
				if err != nil {
					t.Errorf("%s did not come back up: %v", n.Name(), err)
					return
				}
			}
		}
	}()
	go func() { // and new machines are discovered
		defer writers.Done()
		ie, err := c.StartInsertEthers(clusterdb.MembershipCompute, 9)
		if err != nil {
			t.Error(err)
			return
		}
		defer ie.Stop()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			if err := ie.Discover(fmt.Sprintf("02:99:00:00:%02x:%02x", i>>8&0xff, i&0xff)); err != nil {
				t.Errorf("discover: %v", err)
				return
			}
			time.Sleep(10 * time.Millisecond)
		}
	}()

	for r := 0; r < 8; r++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			client := &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1}, Timeout: time.Minute}
			defer client.CloseIdleConnections()
			lastSeq := map[string]uint64{}
			for round, busy := 0, true; busy || round < 10; round++ {
				select {
				case <-reinstalled:
					busy = false
				case <-time.After(2 * time.Millisecond):
				}
				resp, err := client.Get(c.BaseURL() + "/v1/nodes")
				if err != nil {
					t.Errorf("GET /v1/nodes: %v", err)
					return
				}
				var env struct{ Data NodesResponse }
				err = json.NewDecoder(resp.Body).Decode(&env)
				resp.Body.Close()
				if err != nil {
					t.Errorf("round %d: the reply does not decode: %v", round, err)
					return
				}
				// Discoveries only append (ids grow), so the registered
				// nodes are the listing's first rows, in the same order.
				if len(env.Data.Nodes) < len(registered) {
					t.Errorf("round %d: %d nodes listed, %d were registered", round, len(env.Data.Nodes), len(registered))
					return
				}
				seen := map[string]bool{}
				for i, row := range env.Data.Nodes {
					if seen[row.MAC] {
						t.Errorf("round %d: %s (%s) is listed twice", round, row.Name, row.MAC)
					}
					seen[row.MAC] = true
					if i < len(registered) && row.Name != registered[i].Name {
						t.Errorf("round %d: row %d is %s, want %s (id order)", round, i, row.Name, registered[i].Name)
					}
					// 0 is a node whose events the ring has all evicted.
					if row.LastSeq != 0 && row.LastSeq < lastSeq[row.MAC] {
						t.Errorf("round %d: %s last_seq went back from %d to %d", round, row.Name, lastSeq[row.MAC], row.LastSeq)
					}
					lastSeq[row.MAC] = row.LastSeq
				}
			}
		}()
	}
	readers.Wait()
	close(stop)
	writers.Wait()
}
