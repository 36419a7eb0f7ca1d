package dist

import (
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"rocks/internal/kickstart"
	"rocks/internal/rpm"
)

func v(ver, rel string) rpm.Version { return rpm.Version{Version: ver, Release: rel} }

func TestBuildKeepsNewestVersion(t *testing.T) {
	base := rpm.NewRepository("base")
	base.Add(rpm.New("glibc", v("2.2.4", "13"), rpm.ArchI386))
	base.Add(rpm.New("bash", v("2.05", "8"), rpm.ArchI386))
	updates := rpm.NewRepository("updates")
	updates.Add(rpm.New("glibc", v("2.2.4", "24"), rpm.ArchI386))

	d := Build("test", kickstart.NewFramework(),
		Source{"base", base}, Source{"updates", updates})
	if d.Report.Considered != 3 || d.Report.Included != 2 {
		t.Errorf("report = %+v", d.Report)
	}
	got := d.Repo.Newest("glibc", rpm.ArchI386)
	if got == nil || got.Version.Release != "24" {
		t.Errorf("glibc = %v, want release 24 (the update)", got)
	}
	if len(d.Report.Superseded) != 1 || d.Report.Superseded[0] != "glibc-2.2.4-13.i386" {
		t.Errorf("superseded = %v", d.Report.Superseded)
	}
}

func TestBuildLaterSourceWinsTies(t *testing.T) {
	a := rpm.NewRepository("a")
	pa := rpm.New("tool", v("1.0", "1"), rpm.ArchI386, rpm.FileEntry{Path: "/t", Data: []byte("old")})
	a.Add(pa)
	b := rpm.NewRepository("b")
	pb := rpm.New("tool", v("1.0", "1"), rpm.ArchI386, rpm.FileEntry{Path: "/t", Data: []byte("rebuilt")})
	b.Add(pb)
	d := Build("test", kickstart.NewFramework(), Source{"a", a}, Source{"b", b})
	got := d.Repo.Newest("tool", rpm.ArchI386)
	if string(got.Files[0].Data) != "rebuilt" {
		t.Error("same-NVRA package from a later source should win")
	}
}

func TestBuildSeparatesArches(t *testing.T) {
	base := rpm.NewRepository("base")
	base.Add(rpm.New("kernel", v("2.4.9", "31"), rpm.ArchI386))
	base.Add(rpm.New("kernel", v("2.4.9", "31"), rpm.ArchAthlon))
	d := Build("test", kickstart.NewFramework(), Source{"base", base})
	if d.Report.Included != 2 {
		t.Errorf("Included = %d; per-arch packages must both survive", d.Report.Included)
	}
}

func TestSyntheticRedHatCoversDefaultFramework(t *testing.T) {
	fw := kickstart.DefaultFramework()
	synthetic := &Distribution{Name: "redhat", Repo: SyntheticRedHat()}
	for _, arch := range []string{"i386", "athlon"} {
		p, err := fw.Generate(kickstart.Request{Appliance: "compute", Arch: arch, NodeName: "n",
			Attrs: kickstart.DefaultAttrs("u", "h")})
		if err != nil {
			t.Fatal(err)
		}
		pkgs, err := synthetic.ResolveProfile(p)
		if err != nil {
			t.Fatalf("arch %s: %v", arch, err)
		}
		if len(pkgs) < len(p.Packages) {
			t.Errorf("arch %s: resolved %d < requested %d", arch, len(pkgs), len(p.Packages))
		}
	}
	// Frontend must also resolve.
	p, err := fw.Generate(kickstart.Request{Appliance: "frontend", Arch: "i386", NodeName: "fe",
		Attrs: kickstart.DefaultAttrs("u", "h")})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := synthetic.ResolveProfile(p); err != nil {
		t.Errorf("frontend resolve: %v", err)
	}
}

// TestSyntheticComputeTransfersPaperBytes pins the compute appliance
// download at Table I's measured ~225 MB.
func TestSyntheticComputeTransfersPaperBytes(t *testing.T) {
	synthetic := &Distribution{Name: "redhat", Repo: SyntheticRedHat()}
	fw := kickstart.DefaultFramework()
	p, _ := fw.Generate(kickstart.Request{Appliance: "compute", Arch: "i386", NodeName: "n",
		Attrs: kickstart.DefaultAttrs("u", "h")})
	pkgs, err := synthetic.ResolveProfile(p)
	if err != nil {
		t.Fatal(err)
	}
	var sum int64
	for _, pk := range pkgs {
		sum += pk.Size
	}
	want := int64(ComputeTransferBytes)
	tol := want / 100 // scaling rounds per package; stay within 1%
	if sum < want-tol || sum > want+tol {
		t.Errorf("compute transfer = %d bytes, want %d ±1%%", sum, want)
	}
}

func TestSyntheticDeterministic(t *testing.T) {
	a := SyntheticRedHat()
	b := SyntheticRedHat()
	if a.Len() != b.Len() {
		t.Fatalf("package counts differ: %d vs %d", a.Len(), b.Len())
	}
	for _, p := range a.All() {
		q := b.Get(p.NVRA())
		if q == nil {
			t.Fatalf("package %s missing on second generation", p.NVRA())
		}
		if q.Size != p.Size {
			t.Errorf("%s size differs: %d vs %d", p.Name, p.Size, q.Size)
		}
	}
}

func TestGenerateUpdatesBumpReleases(t *testing.T) {
	base := SyntheticRedHat()
	updates := GenerateUpdates(base, 124, 1) // §6.2.1: 124 updates in a year
	if updates.Len() != 124 {
		t.Fatalf("generated %d updates, want 124", updates.Len())
	}
	for _, up := range updates.All() {
		orig := base.Versions(up.Name)
		if len(orig) == 0 {
			t.Fatalf("update for unknown package %s", up.Name)
		}
		if rpm.Compare(up.Version, orig[0].Version) <= 0 {
			t.Errorf("update %s is not newer than base %s", up.NVRA(), orig[0].NVRA())
		}
	}
	// Applying the updates must supersede exactly the updated names.
	d := Build("updated", kickstart.NewFramework(),
		Source{"base", base}, Source{"updates", updates})
	if len(d.Report.Superseded) == 0 {
		t.Error("updates superseded nothing")
	}
	for _, up := range updates.All() {
		got := d.Repo.Newest(up.Name, up.Arch)
		if rpm.Compare(got.Version, up.Version) < 0 {
			t.Errorf("%s: dist has %s, update was %s", up.Name, got.Version, up.Version)
		}
	}
}

func TestBuildChildLinksParentPackages(t *testing.T) {
	base := SyntheticRedHat()
	parent := Build("npaci-rocks", kickstart.DefaultFramework(), Source{"redhat", base})

	local := rpm.NewRepository("campus-local")
	local.Add(rpm.New("campus-licensed-app", v("3.1", "2"), rpm.ArchI386))
	child := BuildChild("campus", parent, nil, Source{"campus-local", local})

	if child.Parent != "npaci-rocks" {
		t.Errorf("Parent = %q", child.Parent)
	}
	if child.Report.Copied != 1 {
		t.Errorf("Copied = %d, want 1 (only the local package)", child.Report.Copied)
	}
	if child.Report.Linked != parent.Repo.Len() {
		t.Errorf("Linked = %d, want %d", child.Report.Linked, parent.Repo.Len())
	}
	// The derived distribution is lightweight: copied bytes are only the
	// local package (the paper's ~25 MB for a real site; here one package).
	if child.Report.CopiedBytes >= parent.Repo.TotalSize()/10 {
		t.Errorf("child copied %d bytes; should be far smaller than the parent's %d",
			child.Report.CopiedBytes, parent.Repo.TotalSize())
	}
	if child.Repo.Newest("campus-licensed-app", rpm.ArchI386) == nil {
		t.Error("local package missing from child")
	}
	if child.Repo.Newest("glibc", rpm.ArchI386) == nil {
		t.Error("inherited package missing from child")
	}
	if child.Lineage() != "npaci-rocks -> campus" {
		t.Errorf("Lineage = %q", child.Lineage())
	}
}

func TestBuildChildFrameworkIsolation(t *testing.T) {
	parent := Build("parent", kickstart.DefaultFramework(), Source{"redhat", SyntheticRedHat()})
	child := BuildChild("child", parent, nil)
	child.Framework.AddNode(&kickstart.NodeFile{Name: "dept-extras",
		Packages: []kickstart.PackageRef{{Name: "campus-licensed-app"}}})
	child.Framework.Graph.AddEdge("compute", "dept-extras")
	if _, ok := parent.Framework.Nodes["dept-extras"]; ok {
		t.Error("child framework edit leaked into parent")
	}
}

func TestHierarchyThreeLevels(t *testing.T) {
	// Figure 6: NPACI → campus → department.
	npaci := Build("npaci", kickstart.DefaultFramework(),
		Source{"redhat", SyntheticRedHat()}, Source{"rocks-local", LocalRocksPackages()})
	campusLocal := rpm.NewRepository("campus-rpms")
	campusLocal.Add(rpm.New("campus-app", v("1.0", "1"), rpm.ArchI386))
	campus := BuildChild("campus", npaci, nil, Source{"campus-rpms", campusLocal})
	deptLocal := rpm.NewRepository("dept-rpms")
	deptLocal.Add(rpm.New("dept-app", v("0.9", "3"), rpm.ArchI386))
	dept := BuildChild("department", campus, nil, Source{"dept-rpms", deptLocal})

	for _, name := range []string{"glibc", "campus-app", "dept-app", "rocks-tools"} {
		found := false
		for _, p := range dept.Repo.Versions(name) {
			_ = p
			found = true
		}
		if !found {
			t.Errorf("department dist missing %s", name)
		}
	}
	if dept.Report.Copied != 1 {
		t.Errorf("department copied %d packages, want 1", dept.Report.Copied)
	}
}

func TestResolveProfile(t *testing.T) {
	d := Build("dist", kickstart.DefaultFramework(), Source{"redhat", SyntheticRedHat()})
	profile, err := d.Framework.Generate(kickstart.Request{Appliance: "compute", Arch: "i386",
		NodeName: "compute-0-0", Attrs: kickstart.DefaultAttrs("u", "h")})
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := d.ResolveProfile(profile)
	if err != nil {
		t.Fatal(err)
	}
	if len(pkgs) != len(profile.Packages) {
		t.Errorf("resolved %d packages for %d requested", len(pkgs), len(profile.Packages))
	}
}

func TestResolveProfileMissingPackage(t *testing.T) {
	fw := kickstart.NewFramework()
	fw.AddNode(&kickstart.NodeFile{Name: "compute",
		Packages: []kickstart.PackageRef{{Name: "no-such-package"}}})
	d := Build("dist", fw, Source{"redhat", SyntheticRedHat()})
	profile, err := d.Framework.Generate(kickstart.Request{Appliance: "compute", Arch: "i386"})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.ResolveProfile(profile); err == nil ||
		!strings.Contains(err.Error(), "no-such-package") {
		t.Errorf("want missing-package error, got %v", err)
	}
}

func TestHTTPServeAndMirror(t *testing.T) {
	parent := Build("npaci", kickstart.DefaultFramework(), Source{"redhat", SyntheticRedHat()})
	srv := httptest.NewServer(NewServer(parent))
	defer srv.Close()

	mirrored, _, err := Mirror(context.Background(), srv.URL, "mirror-of-npaci", MirrorOptions{Fetcher: Fetcher{HTTP: srv.Client()}})
	if err != nil {
		t.Fatal(err)
	}
	if mirrored.Len() != parent.Repo.Len() {
		t.Fatalf("mirrored %d packages, parent has %d", mirrored.Len(), parent.Repo.Len())
	}
	// Spot-check payload fidelity.
	for _, name := range []string{"glibc", "dhcp", "mpich"} {
		orig := parent.Repo.Newest(name, rpm.ArchI386)
		got := mirrored.Get(orig.NVRA())
		if got == nil {
			t.Fatalf("mirror missing %s", orig.NVRA())
		}
		if got.Source != "mirror-of-npaci" {
			t.Errorf("mirrored provenance = %q", got.Source)
		}
		if len(got.Files) != len(orig.Files) {
			t.Errorf("%s payload file count differs", name)
		}
	}
	// The mirror can seed a child build — the full Figure 6 flow over HTTP.
	child := Build("campus", parent.Framework.Clone(), Source{"mirror-of-npaci", mirrored})
	if child.Repo.Len() != parent.Repo.Len() {
		t.Error("child from mirror lost packages")
	}
}

func TestHTTPHandlerErrors(t *testing.T) {
	d := Build("d", kickstart.DefaultFramework(), Source{"redhat", SyntheticRedHat()})
	srv := httptest.NewServer(NewServer(d))
	defer srv.Close()

	resp, err := srv.Client().Get(srv.URL + "/RedHat/RPMS/ghost-1.0-1.i386.rpm")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 404 {
		t.Errorf("missing package: HTTP %d, want 404", resp.StatusCode)
	}
	resp, err = srv.Client().Get(srv.URL + "/RedHat/RPMS/garbage")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 400 {
		t.Errorf("bad filename: HTTP %d, want 400", resp.StatusCode)
	}
	resp, err = srv.Client().Get(srv.URL + "/profiles/graph.dot")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Errorf("graph.dot: HTTP %d", resp.StatusCode)
	}
}

func TestBuildReportSummary(t *testing.T) {
	d := Build("d", kickstart.NewFramework())
	s := d.Report.Summary()
	if !strings.Contains(s, "rocks-dist:") {
		t.Errorf("summary = %q", s)
	}
}

// Property: rebuilding a distribution from its own output is a fixed point
// — rocks-dist is idempotent, which is what makes "a Rocks distribution can
// be run through the identical process" (§6.2.2) safe.
func TestPropertyBuildIdempotent(t *testing.T) {
	base := SyntheticRedHat()
	updates := GenerateUpdates(base, 40, 7)
	first := Build("gen1", kickstart.DefaultFramework(),
		Source{"base", base}, Source{"updates", updates})
	second := Build("gen2", first.Framework,
		Source{"gen1", first.Repo})
	if first.Repo.Len() != second.Repo.Len() {
		t.Fatalf("package count changed: %d -> %d", first.Repo.Len(), second.Repo.Len())
	}
	for _, p := range first.Repo.All() {
		q := second.Repo.Get(p.NVRA())
		if q == nil {
			t.Errorf("%s lost in rebuild", p.NVRA())
		}
	}
	if len(second.Report.Superseded) != 0 {
		t.Errorf("rebuild superseded %v; nothing should be newer", second.Report.Superseded)
	}
}

// TestMirrorIsOneStream counts requests at the server: a full mirror is the
// manifest and one stream, a 20-update delta the same, an unchanged delta the
// manifest alone. A stream cut after k members resumes at member k, with no
// member fetched twice and the one retry charged to member k.
func TestMirrorIsOneStream(t *testing.T) {
	base := SyntheticRedHat()
	parent := NewServer(Build("npaci", kickstart.DefaultFramework(), Source{"redhat", base}))
	updated := NewServer(Build("npaci", kickstart.DefaultFramework(),
		Source{"redhat", base}, Source{"updates", GenerateUpdates(base, 20, 5)}))
	var (
		mu       sync.Mutex
		target   = parent
		requests int
		asks     [][]string
		cut      int // members the next stream delivers before it is cut; 0 = all
	)
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		requests++
		to := target
		if r.Method == http.MethodPost {
			body, _ := io.ReadAll(r.Body)
			ask := strings.Fields(string(body))
			asks = append(asks, ask)
			if cut > 0 {
				ask, cut = ask[:cut], 0
			}
			r.Body = io.NopCloser(strings.NewReader(strings.Join(ask, "\n")))
		}
		mu.Unlock()
		to.ServeHTTP(w, r)
	}))
	defer srv.Close()
	var retried []string
	mirror := func(to *Server, baseline *rpm.Repository, cutAt int) (*rpm.Repository, MirrorReport, int) {
		t.Helper()
		mu.Lock()
		target, requests, asks, cut, retried = to, 0, nil, cutAt, nil
		mu.Unlock()
		f := Fetcher{HTTP: srv.Client(), Backoff: time.Millisecond,
			OnRetry: func(what string, _ error, _ int, _ time.Duration) { retried = append(retried, what) }}
		repo, rep, err := Mirror(context.Background(), srv.URL, "m", MirrorOptions{Fetcher: f, Baseline: baseline})
		if err != nil {
			t.Fatal(err)
		}
		mu.Lock()
		defer mu.Unlock()
		return repo, rep, requests
	}

	full, rep, n := mirror(parent, nil, 0)
	if n != 2 || rep.Fetched != rep.Listed || full.Len() != rep.Listed || len(retried) != 0 {
		t.Errorf("full mirror: %d requests, report %+v; want the manifest and one stream of everything", n, rep)
	}
	if _, rep, n = mirror(updated, full, 0); n != 2 || rep.Fetched == 0 || rep.Fetched+rep.Skipped != rep.Listed {
		t.Errorf("20-update delta: %d requests, report %+v; want the manifest and one stream of the changes", n, rep)
	}
	if _, rep, n = mirror(parent, full, 0); n != 1 || rep.Fetched != 0 || rep.Skipped != rep.Listed {
		t.Errorf("unchanged delta: %d requests, report %+v; want the manifest alone", n, rep)
	}

	const k = 100
	bodies := parent.Stats().PackageRequests
	cutRepo, rep, n := mirror(parent, nil, k)
	if n != 3 || len(asks) != 2 || !slices.Equal(asks[1], asks[0][k:]) {
		t.Fatalf("stream cut after %d members: %d requests; the second asked for %d members from %v, want the %d from %s",
			k, n, len(asks[len(asks)-1]), asks[len(asks)-1][:1], len(asks[0])-k, asks[0][k])
	}
	if got := parent.Stats().PackageRequests - bodies; got != uint64(rep.Listed) || cutRepo.Len() != rep.Listed {
		t.Errorf("stream cut after %d members: %d bodies served for %d packages", k, got, rep.Listed)
	}
	if want := asks[0][k] + ".rpm"; len(retried) != 1 || retried[0] != want {
		t.Errorf("stream cut after %d members: retries %v, want one, of %s", k, retried, want)
	}
}

// TestMirrorRetriesTransientErrors: every stream is refused with a 500 the
// first time it is asked for, and every stream answered is cut short after
// 100 members; the resume loop must absorb both without failing the pass.
func TestMirrorRetriesTransientErrors(t *testing.T) {
	parent := Build("npaci", kickstart.DefaultFramework(), Source{"redhat", SyntheticRedHat()})
	inner := NewServer(parent)
	var mu sync.Mutex
	refused := map[string]bool{} // by the first package a stream asks for
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method == http.MethodPost {
			body, _ := io.ReadAll(r.Body)
			ask := strings.Fields(string(body))
			mu.Lock()
			first := !refused[ask[0]]
			refused[ask[0]] = true
			mu.Unlock()
			if first {
				http.Error(w, "transient", http.StatusInternalServerError)
				return
			}
			r.Body = io.NopCloser(strings.NewReader(strings.Join(ask[:min(len(ask), 100)], "\n")))
		}
		inner.ServeHTTP(w, r)
	}))
	defer srv.Close()

	mirrored, _, err := Mirror(context.Background(), srv.URL, "flaky", MirrorOptions{
		Fetcher: Fetcher{HTTP: srv.Client(), Attempts: 3, Backoff: time.Millisecond}})
	if err != nil {
		t.Fatal(err)
	}
	if mirrored.Len() != parent.Repo.Len() {
		t.Fatalf("mirrored %d packages, parent has %d", mirrored.Len(), parent.Repo.Len())
	}
	if got := inner.Stats().PackageRequests; got != uint64(parent.Repo.Len()) {
		t.Errorf("%d bodies served for %d packages", got, parent.Repo.Len())
	}
}

// TestMirrorDefaultClientBounded: with no client supplied, the Fetcher must
// use a timeout-bearing client, never the unbounded http.DefaultClient.
func TestMirrorDefaultClientBounded(t *testing.T) {
	if defaultClient.Timeout == 0 {
		t.Fatal("default mirror client has no timeout")
	}
}
