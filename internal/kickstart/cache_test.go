package kickstart

import (
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"
)

func defaultTestAttrs() map[string]string {
	return DefaultAttrs("http://10.1.1.1/install/dist", "10.1.1.1")
}

// TestProfileCacheMatchesUncached proves the memoized path is
// indistinguishable from a full Generate for every appliance/arch class of
// the stock framework.
func TestProfileCacheMatchesUncached(t *testing.T) {
	fw := DefaultFramework()
	pc := NewProfileCache(fw)
	attrs := defaultTestAttrs()
	for _, app := range []string{"compute", "frontend"} {
		for _, arch := range []string{"i386", "athlon", "ia64"} {
			req := Request{Appliance: app, Arch: arch, NodeName: app + "-0-0", Attrs: attrs}
			want, err := fw.Generate(req)
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 3; i++ { // miss then hits
				got, err := pc.Generate(req)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("%s/%s: cached profile differs from uncached", app, arch)
				}
			}
		}
	}
	hits, misses, _ := pc.Stats()
	if misses != 6 {
		t.Errorf("misses = %d, want 6 (one per appliance/arch class)", misses)
	}
	if hits != 12 {
		t.Errorf("hits = %d, want 12", hits)
	}
}

// TestProfileCachePerNodeAttrs: one cached template serves many nodes, each
// with its own deferred ${Kickstart_PublicHostname}.
func TestProfileCachePerNodeAttrs(t *testing.T) {
	fw := NewFramework()
	fw.AddNode(&NodeFile{
		Name: "compute",
		Main: []string{"install", "url --url ${Kickstart_DistURL}"},
		Post: []Script{{Text: "hostname ${Kickstart_PublicHostname}"}},
	})
	pc := NewProfileCache(fw)
	attrs := map[string]string{"Kickstart_DistURL": "http://fe/dist"}
	for _, name := range []string{"compute-0-0", "compute-0-1", "compute-0-2"} {
		p, err := pc.Generate(Request{Appliance: "compute", Arch: "i386", NodeName: name,
			Attrs: attrs, NodeAttrs: map[string]string{"Kickstart_PublicHostname": name}})
		if err != nil {
			t.Fatal(err)
		}
		if p.NodeName != name {
			t.Errorf("NodeName = %q, want %q", p.NodeName, name)
		}
		if got := p.Post[0].Text; got != "hostname "+name {
			t.Errorf("post script = %q, want per-node hostname", got)
		}
		if url, _ := p.CommandValue("url"); url != "--url http://fe/dist" {
			t.Errorf("url = %q; shared attribute lost", url)
		}
	}
	hits, misses, _ := pc.Stats()
	if misses != 1 || hits != 2 {
		t.Errorf("stats = %d hits / %d misses; three nodes must share one traversal", hits, misses)
	}
	// A request that never supplies the deferred attribute still fails —
	// memoization must not weaken the dangling-reference contract.
	if _, err := pc.Generate(Request{Appliance: "compute", Arch: "i386", Attrs: attrs}); err == nil ||
		!strings.Contains(err.Error(), "undefined attribute") {
		t.Errorf("missing per-node attribute: err = %v", err)
	}
}

// TestProfileCacheInvalidation: any graph or node-file edit must invalidate
// atomically — the next Generate sees the new framework, never a stale
// profile.
func TestProfileCacheInvalidation(t *testing.T) {
	fw := DefaultFramework()
	pc := NewProfileCache(fw)
	attrs := defaultTestAttrs()
	req := Request{Appliance: "compute", Arch: "i386", NodeName: "compute-0-0", Attrs: attrs}
	if _, err := pc.Generate(req); err != nil {
		t.Fatal(err)
	}
	if _, err := pc.Generate(req); err != nil { // warm
		t.Fatal(err)
	}

	// Edit 1: a new module wired under compute.
	fw.AddNode(&NodeFile{Name: "site-extra", Packages: []PackageRef{{Name: "site-extra-pkg"}}})
	fw.Graph.AddEdge("compute", "site-extra")
	p, err := pc.Generate(req)
	if err != nil {
		t.Fatal(err)
	}
	if !containsString(p.Packages, "site-extra-pkg") {
		t.Fatal("graph edit served a stale profile: site-extra-pkg missing")
	}

	// Edit 2: overriding an existing node file alone (no edge change) must
	// also invalidate — that is how a site replaces a stock module.
	fw.AddNode(&NodeFile{Name: "atlas", Packages: []PackageRef{{Name: "atlas"}, {Name: "atlas-docs"}}})
	p, err = pc.Generate(req)
	if err != nil {
		t.Fatal(err)
	}
	if !containsString(p.Packages, "atlas-docs") {
		t.Fatal("node-file override served a stale profile: atlas-docs missing")
	}

	// Edit 3: merging a graph must bump the stamp too.
	before := fw.Generation()
	extra := &Graph{}
	extra.AddEdge("compute", "ekv")
	fw.Graph.Merge(extra)
	if fw.Generation() <= before {
		t.Error("Merge did not advance the generation stamp")
	}

	_, _, invalidations := pc.Stats()
	if invalidations < 2 {
		t.Errorf("invalidations = %d, want >= 2", invalidations)
	}
}

// TestProfileCacheKeepsTheSectionPerClassAndStamp: a class's section is made
// once per stamp, for the class's arch and packages, and kept under the stamp
// the maker reports, not the one asked with; another class, another stamp or
// a framework edit makes it again.
func TestProfileCacheKeepsTheSectionPerClassAndStamp(t *testing.T) {
	fw := DefaultFramework()
	pc := NewProfileCache(fw)
	var made []string
	resolve := func(arch string, packages []string) (string, uint64) {
		made = append(made, arch)
		return fmt.Sprintf("%%manifest %s %d %d\n", arch, len(packages), len(made)), 7
	}
	want := func(arch string, stamp uint64, section string, calls int) {
		t.Helper()
		req := Request{Appliance: "compute", Arch: arch, NodeName: "compute-0-0", Attrs: defaultTestAttrs()}
		p, err := pc.Resolved(req, stamp, resolve)
		if err != nil {
			t.Fatal(err)
		}
		if prefix := fmt.Sprintf("%%manifest %s %d ", p.Arch, len(p.Packages)); !strings.HasPrefix(p.Manifest, prefix) || !strings.HasSuffix(p.Manifest, section) {
			t.Errorf("%s at stamp %d: Manifest %q, want %q...%q", arch, stamp, p.Manifest, prefix, section)
		}
		if len(made) != calls {
			t.Errorf("%s at stamp %d: %d sections made, want %d", arch, stamp, len(made), calls)
		}
	}
	want("i386", 6, " 1\n", 1) // filed under 7, the state it was made from
	want("i386", 6, " 2\n", 2)
	want("i386", 7, " 2\n", 2)
	want("ia64", 7, " 3\n", 3)
	want("i386", 7, " 2\n", 3)
	fw.AddNode(&NodeFile{Name: "atlas", Packages: []PackageRef{{Name: "atlas"}, {Name: "atlas-docs"}}})
	want("i386", 7, " 4\n", 4)
	if p, err := pc.Generate(Request{Appliance: "compute", NodeName: "n", Attrs: defaultTestAttrs()}); err != nil || p.Manifest != "" {
		t.Errorf("Generate's profile carries Manifest %q (%v); want none", p.Manifest, err)
	}
}

// TestProfileCacheDistinguishesAttrSets: two sites sharing a framework but
// differing in one attribute value must never share a cache entry.
func TestProfileCacheDistinguishesAttrSets(t *testing.T) {
	fw := DefaultFramework()
	pc := NewProfileCache(fw)
	a := defaultTestAttrs()
	b := defaultTestAttrs()
	b["Kickstart_Timezone"] = "Europe/Zurich"
	pa, err := pc.Generate(Request{Appliance: "compute", NodeName: "n", Attrs: a})
	if err != nil {
		t.Fatal(err)
	}
	pb, err := pc.Generate(Request{Appliance: "compute", NodeName: "n", Attrs: b})
	if err != nil {
		t.Fatal(err)
	}
	ta, _ := pa.CommandValue("timezone")
	tb, _ := pb.CommandValue("timezone")
	if ta == tb {
		t.Fatalf("timezone collided across attr sets: %q", ta)
	}
	_, misses, _ := pc.Stats()
	if misses != 2 {
		t.Errorf("misses = %d, want 2 distinct classes", misses)
	}
}

// TestProfileCacheConcurrentGenerate hammers one cache from many
// goroutines (the mass-reinstall shape) and checks every result against
// the uncached reference; run under -race this also proves the cache's
// synchronization.
func TestProfileCacheConcurrentGenerate(t *testing.T) {
	fw := DefaultFramework()
	pc := NewProfileCache(fw)
	attrs := defaultTestAttrs()
	classes := []struct{ app, arch string }{
		{"compute", "i386"}, {"compute", "ia64"}, {"frontend", "i386"}, {"compute", "athlon"},
	}
	want := map[string]*Profile{}
	for _, cl := range classes {
		p, err := fw.Generate(Request{Appliance: cl.app, Arch: cl.arch, NodeName: "ref", Attrs: attrs})
		if err != nil {
			t.Fatal(err)
		}
		want[cl.app+"/"+cl.arch] = p
	}

	const goroutines = 32
	const perG = 25
	errc := make(chan error, goroutines)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				cl := classes[(g+i)%len(classes)]
				name := fmt.Sprintf("node-%d-%d", g, i)
				p, err := pc.Generate(Request{Appliance: cl.app, Arch: cl.arch, NodeName: name, Attrs: attrs})
				if err != nil {
					errc <- err
					return
				}
				if p.NodeName != name {
					errc <- fmt.Errorf("NodeName = %q, want %q", p.NodeName, name)
					return
				}
				p.NodeName = "ref"
				if !reflect.DeepEqual(p, want[cl.app+"/"+cl.arch]) {
					errc <- fmt.Errorf("%s/%s: concurrent cached profile diverged", cl.app, cl.arch)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}
	hits, misses, _ := pc.Stats()
	if hits+misses != goroutines*perG {
		t.Errorf("hits+misses = %d, want %d", hits+misses, goroutines*perG)
	}
	if hits == 0 {
		t.Error("no cache hits under concurrent load")
	}
}

// TestProfileCacheTraversalError: a broken graph errors identically through
// the cache and is not memoized as success.
func TestProfileCacheTraversalError(t *testing.T) {
	fw := NewFramework()
	fw.AddNode(&NodeFile{Name: "compute"})
	fw.Graph.AddEdge("compute", "ghost")
	pc := NewProfileCache(fw)
	for i := 0; i < 2; i++ {
		_, err := pc.Generate(Request{Appliance: "compute", Arch: "i386"})
		if _, ok := err.(*TraversalError); !ok {
			t.Fatalf("err = %v, want *TraversalError", err)
		}
	}
	// Repairing the graph heals the cache on the same request.
	fw.AddNode(&NodeFile{Name: "ghost", Packages: []PackageRef{{Name: "ghost-pkg"}}})
	p, err := pc.Generate(Request{Appliance: "compute", Arch: "i386"})
	if err != nil {
		t.Fatal(err)
	}
	if !containsString(p.Packages, "ghost-pkg") {
		t.Error("repaired graph not visible through cache")
	}
}

func containsString(list []string, want string) bool {
	for _, s := range list {
		if s == want {
			return true
		}
	}
	return false
}
