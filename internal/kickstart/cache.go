package kickstart

import (
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"rocks/internal/metrics"
)

// ProfileCache memoizes kickstart generation for one framework. The paper's
// premise makes full reinstallation the default management operation (§4),
// so when a few hundred nodes reinstall at once the kickstart CGI is the
// install server's hot path — and almost every request in such a storm is
// for the same (appliance, arch, site attributes) class. The cache stores
// the shared profile template (graph traversal + substitution of the shared
// attributes) keyed on that class, and stamps per-node Profiles out of it:
// a thousand compute nodes cost one traversal plus a thousand cheap
// instantiations of the deferred per-node references
// (Request.NodeAttrs, e.g. Kickstart_PublicHostname).
//
// Every entry is guarded by the framework's Generation stamp: any graph
// edge, node file, or merged graph change bumps the stamp and the whole
// cache drops atomically on the next request, so a stale profile is never
// served. Changing the shared attributes changes the key itself.
//
// The cache is safe for concurrent Generate calls. Framework mutations must
// be sequenced with respect to Generate (see Framework.Generation).
type ProfileCache struct {
	fw *Framework

	mu      sync.RWMutex
	gen     uint64
	entries map[profileKey]*profileTemplate

	hits          atomic.Uint64
	misses        atomic.Uint64
	invalidations atomic.Uint64
}

// profileKey identifies one shared-profile class. The attrs field is a
// canonical encoding of the shared attribute map — an exact key, so two
// different attribute sets can never collide into one entry.
type profileKey struct {
	appliance string
	arch      string
	attrs     string
}

// NewProfileCache creates an empty cache bound to the framework.
func NewProfileCache(fw *Framework) *ProfileCache {
	return &ProfileCache{
		fw:      fw,
		gen:     fw.Generation(),
		entries: make(map[profileKey]*profileTemplate),
	}
}

// Generate is Framework.Generate through the memo: on a hit the graph
// traversal and shared substitution are skipped entirely and only the
// per-node references (req.NodeAttrs) are resolved. Results are identical
// to the uncached path, including errors for undefined attributes.
func (pc *ProfileCache) Generate(req Request) (*Profile, error) {
	return pc.Resolved(req, 0, nil)
}

// Resolved is Generate with the profile's Manifest set: the section kept with
// its class if made from the state stamp names, or else the one resolve makes,
// kept from then on under the stamp resolve reports having read. The cache
// reads neither, and flushes a section with its template.
func (pc *ProfileCache) Resolved(req Request, stamp uint64, resolve func(arch string, packages []string) (section string, stamp uint64)) (*Profile, error) {
	if req.Arch == "" {
		req.Arch = "i386"
	}
	gen := pc.fw.Generation()
	key := profileKey{appliance: req.Appliance, arch: req.Arch, attrs: canonicalAttrs(req.Attrs)}

	pc.mu.RLock()
	var t *profileTemplate
	section, filed := "", false
	if pc.gen == gen {
		if t = pc.entries[key]; t != nil {
			section, filed = t.section, t.stamp == stamp
		}
	}
	pc.mu.RUnlock()

	if t != nil {
		pc.hits.Add(1)
	} else {
		var err error
		t, err = pc.fw.generateTemplate(req.Appliance, req.Arch, req.Attrs)
		if err != nil {
			return nil, err
		}
		pc.misses.Add(1)
		pc.mu.Lock()
		pc.flushIfStaleLocked(gen)
		pc.entries[key] = t
		pc.mu.Unlock()
	}
	if resolve != nil && !filed {
		section, stamp = resolve(t.arch, t.packages)
		pc.mu.Lock()
		t.section, t.stamp = section, stamp
		pc.mu.Unlock()
	}
	p, err := t.instantiate(req.NodeName, req.NodeAttrs)
	if err == nil && resolve != nil {
		p.Manifest = section
	}
	return p, err
}

// flushIfStaleLocked drops every memoized entry if the cache was filled
// under a different generation stamp. The framework changed since then:
// everything from the older generation is dead. Callers hold pc.mu.
func (pc *ProfileCache) flushIfStaleLocked(gen uint64) {
	if pc.gen != gen {
		pc.entries = make(map[profileKey]*profileTemplate)
		pc.gen = gen
		pc.invalidations.Add(1)
	}
}

// Stats reports cache traffic: template hits, template builds (misses), and
// generation-stamp flushes (invalidations).
func (pc *ProfileCache) Stats() (hits, misses, invalidations uint64) {
	return pc.hits.Load(), pc.misses.Load(), pc.invalidations.Load()
}

// RegisterMetrics exposes the cache counters on the registry. Collector
// funcs sample the atomics at scrape time; the Generate hot path is
// untouched.
func (pc *ProfileCache) RegisterMetrics(r *metrics.Registry) {
	r.CounterFunc("rocks_kickstart_cache_hits_total",
		"Kickstart requests answered from the profile memo.",
		func() float64 { return float64(pc.hits.Load()) })
	r.CounterFunc("rocks_kickstart_cache_misses_total",
		"Kickstart requests that paid a full graph traversal.",
		func() float64 { return float64(pc.misses.Load()) })
	r.CounterFunc("rocks_kickstart_cache_invalidations_total",
		"Whole-cache drops caused by framework generation bumps.",
		func() float64 { return float64(pc.invalidations.Load()) })
}

// canonicalAttrs encodes an attribute map into one deterministic string.
// Keys and values are joined with bytes that cannot appear in either, so
// distinct maps always encode differently.
func canonicalAttrs(attrs map[string]string) string {
	if len(attrs) == 0 {
		return ""
	}
	keys := make([]string, 0, len(attrs))
	for k := range attrs {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	for _, k := range keys {
		b.WriteString(k)
		b.WriteByte(0)
		b.WriteString(attrs[k])
		b.WriteByte(1)
	}
	return b.String()
}
