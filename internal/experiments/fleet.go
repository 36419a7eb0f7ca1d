package experiments

import (
	"cmp"
	"math"
	"math/bits"
	"sort"
	"strconv"

	"rocks/internal/simnet"
)

// The fleet model. One simulator answers every quantitative question this
// repository asks: Table I and the §6.3 ablations are its n ≤ 32, one
// frontend, no relay, one shard case; the relay curve turns the peer tier
// on; the federation curve splits the fleet into shards (DESIGN.md §10).
//
// Frontend-only, every installing node fair-shares a frontend NIC, so the
// download phase is linear in N and the fleet finishes all at once, late.
// Relay mode is admission-controlled: each source (a frontend, then every
// node that has completed) serves a bounded number of install streams, a
// node waits for a slot, and serving capacity grows wave over wave. Racks
// are shared uplinks: a same-rack peer's stream stays inside the rack
// switch, a cross-rack one crosses both uplinks, and a frontend's crosses
// its NIC plus the node's rack uplink.

// FleetParams parameterizes the fleet model. One rule for every field: a
// zero value takes its DefaultFleetParams value (so a zero Relay, StreamBps
// or MirrorBytes means off, and Shards ≤ 1 the unsharded fleet). Running
// with Nodes ≤ 0, or any other count or duration negative, panics naming
// the field.
type FleetParams struct {
	// Nodes is the fleet size; RackSize nodes share one uplink.
	Nodes    int
	RackSize int
	// Frontends is the number of replicated installation servers behind
	// load balancing (§6.3); nodes are assigned round-robin.
	Frontends int
	// FrontendBps is one frontend NIC's capacity in bytes/second — the
	// paper's dual-PIII frontend on Fast Ethernet: ~92% utilization of
	// 100 Mbit ≈ 11.5 MB/s. UplinkBps is one rack's uplink (Gigabit) and
	// NodeBps a compute node's NIC (Fast Ethernet).
	FrontendBps float64
	UplinkBps   float64
	NodeBps     float64
	// TotalBytes is one install's wire traffic and DISecs its solo
	// download-and-install time: the real compute profile, ~225 MB in
	// 223 s (the §6.3 calibration). The smoothed anaconda pipeline presents
	// TotalBytes/DISecs ≈ 1 MB/s of demand per node.
	TotalBytes float64
	DISecs     float64
	// StreamBps > 0 switches the demand model to per-package bursts: each
	// package of the compute profile downloads at this single-stream
	// ceiling and the node then stalls for the package's share of the CPU
	// time (DISecs less the wire time). Identical nodes then burst in
	// lockstep and contend even at small N — the ablation showing why the
	// demand model matters.
	StreamBps float64
	// PreSecs is power-on → first package byte; PostSecs is
	// post-configuration, the Myrinet driver rebuild (140 s of it, §6.3's
	// 20-30% penalty), and the final reboot. A relay starts serving only
	// after PostSecs (install-complete is what promotes it).
	PreSecs  float64
	PostSecs float64
	// Relay enables the peer tier. SourceStreams is the admission cap: how
	// many concurrent install streams one source (frontend or relay)
	// serves. Frontend-only mode ignores it — every node fair-shares its
	// frontend's NIC, which is exactly the failure being measured.
	Relay         bool
	SourceStreams int
	// Shards splits the fleet across that many child frontends (round-robin
	// remainder), each a full frontend for its nodes and an independent
	// copy of this model — what the relay tier does for package bytes, done
	// for the frontend itself. MirrorBytes is what each child pulls from
	// the top before its shard can start installing; zero is the delta
	// re-mirror of an unchanged tree, which moves no package bodies.
	Shards      int
	MirrorBytes float64
}

// DefaultFleetParams returns the paper-hardware configuration for n nodes.
func DefaultFleetParams(n int, relay bool) FleetParams {
	return FleetParams{Nodes: n, Relay: relay}.withDefaults()
}

// withDefaults applies FleetParams' zero-value rule; the defaults are the
// paper's hardware.
func (p FleetParams) withDefaults() FleetParams {
	p.RackSize = cmp.Or(p.RackSize, 32)
	p.Frontends = cmp.Or(p.Frontends, 1)
	p.FrontendBps = cmp.Or(p.FrontendBps, mbps(11.5))
	p.UplinkBps = cmp.Or(p.UplinkBps, 125e6) // Gigabit
	p.NodeBps = cmp.Or(p.NodeBps, 12.5e6)    // Fast Ethernet
	p.TotalBytes = cmp.Or(p.TotalBytes, profileBytes())
	p.DISecs = cmp.Or(p.DISecs, soloDISecs)
	p.PreSecs = cmp.Or(p.PreSecs, 60)
	p.PostSecs = cmp.Or(p.PostSecs, 335) // post configuration + GM rebuild + reboot
	p.SourceStreams = cmp.Or(p.SourceStreams, 8)
	p.Shards = max(p.Shards, 1)
	return p
}

// CompletionCurve is one experiment's outcome: every node's completion
// time, the curve's two headline quantiles, and the byte split that shows
// whose NIC carried the install.
type CompletionCurve struct {
	Params     FleetParams
	Times      []float64 // sorted install-complete times, seconds
	TimeTo90   float64   // when 90% of the fleet had completed
	TimeToLast float64   // when the last node completed
	// FrontendBytes crossed a frontend's NIC (the shards' and, for the
	// mirror phase, the top's); PeerBytes came from relays.
	FrontendBytes float64
	PeerBytes     float64
	// Waves counts distinct completion instants (rounded to the second) —
	// the staged-growth signature of relay mode.
	Waves int
	// MirrorSecs is when the last child finished mirroring — the moment
	// installs may begin anywhere. All children pull concurrently and
	// fair-share the top frontend's NIC. PerShard holds the curves Times
	// was merged from, one per non-empty shard.
	MirrorSecs float64
	PerShard   []CompletionCurve
}

// RunInstallCurve simulates one mass reinstall and returns its completion
// curve. Deterministic: same params, same curve.
func RunInstallCurve(p FleetParams) CompletionCurve {
	if p.Nodes <= 0 {
		panic("experiments: FleetParams.Nodes must be at least one")
	}
	for i, v := range [...]float64{float64(p.RackSize), float64(p.Frontends), float64(p.SourceStreams), p.DISecs, p.PreSecs, p.PostSecs} {
		if v < 0 {
			panic("experiments: FleetParams." + [...]string{"RackSize", "Frontends", "SourceStreams", "DISecs", "PreSecs", "PostSecs"}[i] + " is negative")
		}
	}
	p = p.withDefaults()
	// Every child mirrors concurrently, fair-sharing the top NIC: each sees
	// FrontendBps/Shards, so all finish together.
	mirrored := p.MirrorBytes * float64(p.Shards)
	out := CompletionCurve{
		Params:        p,
		Times:         make([]float64, 0, p.Nodes),
		FrontendBytes: mirrored,
		MirrorSecs:    mirrored / p.FrontendBps,
	}
	shard := p
	shard.Shards, shard.MirrorBytes = 1, 0
	for s := 0; s < p.Shards; s++ {
		shard.Nodes = (p.Nodes + p.Shards - 1 - s) / p.Shards // the remainder goes round-robin
		if shard.Nodes == 0 {
			continue
		}
		c := simulate(shard)
		for i := range c.Times {
			c.Times[i] += out.MirrorSecs
		}
		out.FrontendBytes += c.FrontendBytes
		out.PeerBytes += c.PeerBytes
		out.Times = append(out.Times, c.Times...)
		out.PerShard = append(out.PerShard, finishCurve(c))
	}
	return finishCurve(out)
}

// source is one place the scheduler can draw a package stream from, named by
// its index in fleetRun.srcs: the frontends, then relays in completion order.
type source struct {
	nic  *simnet.Link
	rack int32 // -1 for a frontend
	pos  int32 // a relay's position among its rack's, in completion order
	free int32
}

// bitset is a set over [0, n): a bit per member and a summary bit per
// non-empty word, so the lowest member costs len(sum) + 1 words — 26 over
// 100 001 sources.
type bitset struct{ words, sum []uint64 }

func newBitset(n int) bitset { return bitset{make([]uint64, (n+63)/64), make([]uint64, (n+4095)/4096)} }

func (b bitset) set(i int32, on bool) {
	w := &b.words[i/64]
	if on {
		*w |= 1 << (i % 64)
		b.sum[i/4096] |= 1 << (i / 64 % 64)
	} else if *w &^= 1 << (i % 64); *w == 0 {
		b.sum[i/4096] &^= 1 << (i / 64 % 64)
	}
}

// lowest returns the set's least member, or -1 if it is empty.
func (b bitset) lowest() int32 {
	for j, s := range b.sum {
		if s != 0 {
			w := j*64 + bits.TrailingZeros64(s)
			return int32(w*64 + bits.TrailingZeros64(b.words[w]))
		}
	}
	return -1
}

// fleetRun is the state of one unsharded simulation, every row sized once.
// The per-install callbacks are its methods closed over (receiver, node)
// only: as nested closures that each captured the parameter set, the same
// scheduler allocated 100 MB more per 100 000-node repetition (DESIGN.md §10).
type fleetRun struct {
	p      FleetParams
	sim    *simnet.Simulation
	uplink []*simnet.Link
	// srcOf[n] is the source serving node n's install. Nodes are admitted in
	// index order, so the queue for a slot is just the nodes from next on.
	srcs  []source
	srcOf []int32
	next  int
	// Every source with a free slot is in anyFree and, if it is a relay, in
	// its rack's rackFree by position; rackSrc maps a position to the source.
	anyFree  bitset
	rackFree []bitset
	rackSrc  [][]int32
	// pkgs is the per-package split of one install, burst mode only.
	pkgs  []PackageWork
	curve CompletionCurve
}

// newFleetRun sizes the rows for a source per frontend and, relaying, per node.
func newFleetRun(p FleetParams) *fleetRun {
	r := &fleetRun{p: p, sim: simnet.New(), srcOf: make([]int32, p.Nodes), curve: CompletionCurve{Params: p, Times: make([]float64, 0, p.Nodes)}}
	r.uplink = make([]*simnet.Link, (p.Nodes+p.RackSize-1)/p.RackSize)
	sources := p.Frontends
	if p.Relay {
		sources += p.Nodes
		r.rackFree, r.rackSrc = make([]bitset, len(r.uplink)), make([][]int32, len(r.uplink))
		for k := range r.rackFree {
			r.rackFree[k], r.rackSrc[k] = newBitset(p.RackSize), make([]int32, 0, p.RackSize)
		}
	}
	r.srcs, r.anyFree = make([]source, 0, sources), newBitset(sources)
	return r
}

// simulate runs one unsharded fleet; the returned Times are in completion
// order and the quantiles unset.
func simulate(p FleetParams) CompletionCurve {
	r := newFleetRun(p)
	for i := 0; i < p.Frontends; i++ {
		r.addSource(r.sim.NewLink("frontend-"+strconv.Itoa(i)+"-nic", p.FrontendBps), -1)
	}
	for i := range r.uplink {
		r.uplink[i] = r.sim.NewLink("rack-"+strconv.Itoa(i)+"-uplink", p.UplinkBps)
	}
	if p.StreamBps > 0 {
		cpu := max(p.DISecs-p.TotalBytes/p.StreamBps, 0)
		for _, w := range ComputePackageWork() {
			share := w.Bytes / profileBytes()
			r.pkgs = append(r.pkgs, PackageWork{Name: w.Name, Bytes: p.TotalBytes * share, CPUSecs: cpu * share})
		}
	}
	r.sim.After(p.PreSecs, r.powerOn)
	r.sim.Run()
	return r.curve
}

func (r *fleetRun) rackOf(n int) int { return n / r.p.RackSize }

// powerOn is the instant every node is ready for its first package byte.
func (r *fleetRun) powerOn() {
	if r.p.Relay {
		r.dispatch()
		return
	}
	// Frontend-only: every node joins the fair-share scrum at once.
	for ; r.next < r.p.Nodes; r.next++ {
		r.start(int32(r.next%r.p.Frontends), r.next)
	}
}

// addSource appends a source with every slot free.
func (r *fleetRun) addSource(nic *simnet.Link, rack int) {
	s := source{nic: nic, rack: int32(rack)}
	if rack >= 0 {
		s.pos = int32(len(r.rackSrc[rack]))
		r.rackSrc[rack] = append(r.rackSrc[rack], int32(len(r.srcs)))
	}
	r.srcs = append(r.srcs, s)
	r.release(int32(len(r.srcs)-1), int32(r.p.SourceStreams))
}

// release frees n of source i's slots (n = -1 takes one).
func (r *fleetRun) release(i, n int32) {
	s := &r.srcs[i]
	if had := s.free > 0; had != (s.free+n > 0) {
		r.anyFree.set(i, !had)
		if s.rack >= 0 {
			r.rackFree[s.rack].set(s.pos, !had)
		}
	}
	s.free += n
}

// pick chooses the source for a node in rack: the first same-rack relay with
// a free slot (no uplink crossing), else the first source of any kind with
// one — the frontends sit at the head of the list, so they seed the first
// wave and backstop thereafter. It returns -1 if no source has a slot.
func (r *fleetRun) pick(rack int) int32 {
	if pos := r.rackFree[rack].lowest(); pos >= 0 {
		return r.rackSrc[rack][pos]
	}
	return r.anyFree.lowest()
}

// dispatch admits waiting nodes, in order, while some source has a slot.
func (r *fleetRun) dispatch() {
	for r.next < r.p.Nodes {
		i := r.pick(r.rackOf(r.next))
		if i < 0 {
			return
		}
		r.release(i, -1)
		r.next++
		r.start(i, r.next-1)
	}
}

// start begins node n's install from source i. Until a node serves, its NIC
// carries only its own install (one flow at a time, in burst mode too), and
// under max-min a link one flow crosses is just a cap on it: the install is
// capped at NodeBps as well, and the NIC becomes a link in installed.
func (r *fleetRun) start(i int32, n int) {
	r.srcOf[n] = i
	src := &r.srcs[i]
	var path []*simnet.Link
	switch rack := r.rackOf(n); {
	case src.rack < 0:
		path = []*simnet.Link{src.nic, r.uplink[rack]}
		r.curve.FrontendBytes += r.p.TotalBytes
	case int(src.rack) == rack:
		// Same rack: the stream never leaves the rack switch.
		path = []*simnet.Link{src.nic}
		r.curve.PeerBytes += r.p.TotalBytes
	default:
		path = []*simnet.Link{src.nic, r.uplink[src.rack], r.uplink[rack]}
		r.curve.PeerBytes += r.p.TotalBytes
	}
	if r.pkgs != nil {
		r.burst(n, path, 0)
		return
	}
	// Anaconda overlaps the next package's download with the current
	// package's unpack, so a node presents a smooth demand rather than
	// wire-speed bursts — the paper's "each reinstalling node demands
	// 1 MB/sec". One flow per install, capped at that demand, completes
	// when download AND install are both done.
	r.sim.StartFlow("install-"+strconv.Itoa(n), r.p.TotalBytes, path, min(r.p.TotalBytes/r.p.DISecs, r.p.NodeBps),
		func() { r.transferred(n) })
}

// burst is the ablation's demand model: package i at the single-stream
// ceiling, then a stall for its CPU time, then the next.
func (r *fleetRun) burst(n int, path []*simnet.Link, i int) {
	if i == len(r.pkgs) {
		r.transferred(n)
		return
	}
	w := &r.pkgs[i]
	r.sim.StartFlow("n"+strconv.Itoa(n)+"-"+w.Name, w.Bytes, path, min(r.p.StreamBps, r.p.NodeBps), func() {
		r.sim.After(w.CPUSecs, func() { r.burst(n, path, i+1) })
	})
}

// transferred runs when node n has its last byte: the source's slot frees
// now, but the node only completes — and, in relay mode, becomes a source —
// after its post phase (install-complete).
func (r *fleetRun) transferred(n int) {
	r.release(r.srcOf[n], 1)
	r.dispatch()
	r.sim.After(r.p.PostSecs, func() { r.installed(n) })
}

func (r *fleetRun) installed(n int) {
	r.curve.Times = append(r.curve.Times, r.sim.Now())
	if r.p.Relay { // a NIC is named for what it is; its source index says which
		r.addSource(r.sim.NewLink("node-nic", r.p.NodeBps), r.rackOf(n))
		r.dispatch()
	}
}

// finishCurve sorts the completion times and derives the headline figures.
func finishCurve(c CompletionCurve) CompletionCurve {
	sort.Float64s(c.Times)
	n := len(c.Times)
	c.TimeTo90 = c.Times[int(math.Ceil(0.9*float64(n)))-1]
	c.TimeToLast = c.Times[n-1]
	last := math.Inf(-1)
	for _, t := range c.Times {
		if sec := math.Floor(t); sec != last {
			c.Waves++
			last = sec
		}
	}
	return c
}
