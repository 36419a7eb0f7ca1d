package bench

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"time"

	"rocks/internal/clusterdb"
	"rocks/internal/metrics"
)

// adminQuery is one scheduled foreground request.
type adminQuery struct {
	kind int           // index into adminQueries
	row  int           // sql_point: which known row to ask for
	due  time.Duration // offset from the start of the timed section
}

// adminMix is an administrator's read traffic arriving on its own schedule
// while the cluster is busy: the same clusterdb, lifecycle and core code as
// the two storms, used as reads beside writes. A change that speeds a storm
// by making scans, report passes or ring reads dearer, or by holding a lock
// longer, shows here and nowhere else.
func adminMix(r *run) error {
	r.sizes["rows"], r.sizes["live_nodes"], r.sizes["clients"] = r.opt.Sizes.AdminRows, r.opt.Sizes.AdminLive, r.opt.Clients
	r.sizes["queries_per_s"] = int(r.opt.Sizes.AdminQPS)

	var f *fleet
	var names, macs []string // the discovered rows, for the point query
	macSpace := newMACSpace(r)
	const firstDiscoveredRack = 100 // live nodes fill racks from 0; background discoveries use the rack after the last discovered one
	rack := firstDiscoveredRack
	err := r.setups(r.opt.Sizes.Setups, func() error {
		c, _, err := newFrontend(r, true)
		if err != nil {
			return err
		}
		f = newFleet(c)
		names, macs, rack = nil, nil, firstDiscoveredRack
		for len(names) < r.opt.Sizes.AdminRows {
			ie, err := c.StartInsertEthers(clusterdb.MembershipCompute, rack)
			if err != nil {
				return err
			}
			for rank := 0; rank < r.opt.Sizes.SessionSize && len(names) < r.opt.Sizes.AdminRows; rank++ {
				mac := macSpace.take()
				if err := ie.Discover(mac); err != nil {
					return err
				}
				names, macs = append(names, fmt.Sprintf("compute-%d-%d", rack, rank)), append(macs, mac)
			}
			ie.Stop()
			rack++
		}
		return f.integrateAll(r, r.opt.Sizes.AdminLive, 0)
	}, func() { f.close() })
	if err != nil {
		return err
	}
	defer f.close()

	// The open-loop schedule: exponential gaps at AdminQPS, and the seven
	// query kinds dealt like a deck — a fresh seeded permutation every seven
	// arrivals — so the mix is equal-weight exactly, not just on average:
	// the pooled median of kinds that differ 1000× in cost would otherwise
	// move with the seed's luck, not with the code.
	var schedule []adminQuery
	var deck []int
	length := time.Duration(r.opt.Seconds * float64(time.Second))
	for due := time.Duration(0); ; {
		due += time.Duration(r.rng.ExpFloat64() / r.opt.Sizes.AdminQPS * float64(time.Second))
		if due >= length {
			break
		}
		if len(deck) == 0 {
			deck = r.rng.Perm(len(adminQueries))
		}
		schedule = append(schedule, adminQuery{kind: deck[0], row: r.rng.Intn(len(names)), due: due})
		deck = deck[1:]
	}

	transport := &http.Transport{MaxConnsPerHost: r.opt.Clients, MaxIdleConnsPerHost: r.opt.Clients}
	defer transport.CloseIdleConnections()
	client := &http.Client{Transport: transport, Timeout: opTimeout}
	var mu sync.Mutex
	opMS := make([][]float64, len(adminQueries))
	var lateMS, bgInstallMS []float64
	shotAt := make([]time.Time, len(f.nodes))
	bgIE, err := f.c.StartInsertEthers(clusterdb.MembershipCompute, rack)
	if err != nil {
		return err
	}
	defer bgIE.Stop()

	totals := counts{}
	r.timedCounted(f.c, totals, func() {
		start := time.Now()
		defer r.watchSlices(start)()
		// sleepUntil parks until offset due and returns how late it woke.
		sleepUntil := func(due time.Duration) time.Duration {
			time.Sleep(due - time.Since(start))
			return time.Since(start) - due
		}
		var wg sync.WaitGroup

		// Foreground: one generator keeps the schedule; C connections
		// carry it. A query that finds every connection busy waits in
		// the queue, and that wait is in its latency.
		queue := make(chan adminQuery, len(schedule))
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer close(queue)
			for _, q := range schedule {
				late := sleepUntil(q.due)
				mu.Lock()
				lateMS = append(lateMS, float64(late)/1e6)
				mu.Unlock()
				queue <- q
			}
		}()
		for w := 0; w < r.opt.Clients; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for q := range queue {
					kind := adminQueries[q.kind]
					target := kind.target
					if kind.op == "sql_point" {
						target += pointQuery(names[q.row])
					}
					slice := r.sliceAt(q.due)
					rec := r.slice(slice)
					sent := time.Now()
					body, err := fetch(client, f.c.BaseURL()+target)
					done := time.Now()
					if err == nil {
						err = checkReply(kind.op, body, names[q.row], macs[q.row])
					}
					r.attempt(err == nil)
					if err != nil {
						r.errorf("%s: %v", kind.op, err)
						continue
					}
					ms := float64(done.Sub(start)-q.due) / 1e6
					r.op(ms, slice)
					mu.Lock()
					opMS[q.kind] = append(opMS[q.kind], ms)
					mu.Unlock()
					if rec != nil {
						trace := rec.NewTrace()
						root := rec.Add(trace, 0, "bench", "admin "+kind.op, start.Add(q.due), done)
						rec.Add(trace, root, "core", kind.op, sent, done)
					}
				}
			}()
		}

		// Background, paced: reinstalls round-robin over the live nodes …
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := 0; ; k++ {
				due := time.Duration(float64(k) / r.opt.Sizes.BgInstallsPerS * float64(time.Second))
				if due >= length {
					return
				}
				sleepUntil(due)
				i := k % len(f.nodes)
				shotAt[i] = time.Now()
				wg.Add(1)
				go func() {
					defer wg.Done()
					d, err := f.reinstall(f.nodes[i], r.slice(r.sliceAt(due)))
					r.attempt(err == nil)
					if err != nil {
						r.errorf("background reinstall: %v", err)
						return
					}
					mu.Lock()
					bgInstallMS = append(bgInstallMS, float64(d)/1e6)
					mu.Unlock()
				}()
			}
		}()
		// … and discoveries of new MACs.
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := 0; ; k++ {
				due := time.Duration(float64(k) / r.opt.Sizes.BgDiscoversPerS * float64(time.Second))
				if due >= length {
					return
				}
				sleepUntil(due)
				err := bgIE.Discover(macSpace.take())
				r.attempt(err == nil)
				if err != nil {
					r.errorf("background discovery: %v", err)
				}
			}
		}()
		wg.Wait()
		r.rates = append(r.rates, float64(len(r.ops))/time.Since(start).Seconds())
	})

	checkFleet(r, f, shotAt)
	if r.opt.Trace {
		r.countMetrics(totals, r.timedS)
		r.phaseP50s()
		for i, q := range adminQueries {
			r.set("admin."+q.op+"_ms_p50", percentile(opMS[i], 50), len(opMS[i]))
		}
		r.set("admin.bg_install_ms_p50", percentile(bgInstallMS, 50), len(bgInstallMS))
		r.set("gen.late_ms_p99", percentile(lateMS, 99), len(lateMS))
		f.probe(r)
	}
	return nil
}

// fetch GETs url over the shared keep-alive connections and returns the
// whole body of a 200 reply.
func fetch(client *http.Client, url string) ([]byte, error) {
	resp, err := client.Get(url)
	if err != nil {
		return nil, err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("HTTP %d: %.80s", resp.StatusCode, body)
	}
	return body, nil
}

// checkReply verifies one reply: /metrics must parse strictly, every /v1
// reply must be a {"data": …} envelope, and the point query must return
// exactly its row.
func checkReply(op string, body []byte, name, mac string) error {
	if op == "metrics" {
		_, err := metrics.ParseText(bytes.NewReader(body))
		return err
	}
	var envelope struct {
		Data  json.RawMessage `json:"data"`
		Error json.RawMessage `json:"error"`
	}
	if err := json.Unmarshal(body, &envelope); err != nil {
		return fmt.Errorf("reply is not a /v1 envelope: %v", err)
	}
	if len(envelope.Data) == 0 || len(envelope.Error) != 0 {
		return fmt.Errorf("envelope carries no data: %.80s", body)
	}
	if op == "sql_point" {
		var data struct{ Result string }
		if err := json.Unmarshal(envelope.Data, &data); err != nil {
			return err
		}
		if strings.Count(data.Result, "compute-") != 1 || !strings.Contains(data.Result, name) || !strings.Contains(data.Result, mac) {
			return fmt.Errorf("point query for %s (%s) returned %q", name, mac, data.Result)
		}
	}
	return nil
}
