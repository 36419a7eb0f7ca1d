package dist

import (
	"cmp"
	"fmt"
	"math/rand"
	"net/http/httptest"
	"net/url"
	"slices"
	"strconv"
	"strings"
	"testing"
	"time"

	"rocks/internal/kickstart"
	"rocks/internal/rpm"
)

// resolveText is the rule the installer ran over the manifest it fetched
// before the kickstart carried its resolution, kept as the oracle of the
// frontend's resolver: for each name, in order, the entry of its newest
// version built for an arch that installs on arch; on a tie, the first in
// the manifest. Every line is checked as ParseManifest checks it, and a
// garbled one is a torn transfer (transient); a line whose NVRA does not
// parse is skipped.
func resolveText(manifest []byte, arch string, names []string) ([]ManifestEntry, error) {
	first := make(map[string]int, len(names)) // a name's first index in names
	for i := len(names) - 1; i >= 0; i-- {
		first[names[i]] = i
	}
	entries := make([]ManifestEntry, len(names))
	if err := scanManifest(string(manifest), func(e ManifestEntry) {
		m, err := rpm.ParseNVRA(e.NVRA)
		i, wanted := first[m.Name]
		if err != nil || !wanted || !rpm.ArchCompatible(arch, m.Arch) {
			return
		}
		if cur := entries[i].NVRA; cur != "" {
			if c, _ := rpm.ParseNVRA(cur); rpm.Compare(m.Version, c.Version) <= 0 {
				return
			}
		}
		entries[i] = e
	}); err != nil {
		return nil, Transient(err)
	}
	for i, name := range names {
		if entries[i].NVRA == "" {
			if first[name] == i { // in the words the installer has always used
				return nil, fmt.Errorf("installer: package %q not present in distribution", name)
			}
			entries[i] = entries[first[name]]
		}
	}
	return entries, nil
}

// resolveIndexRef and resolveEntriesRef are the rule as the installer ran
// it before resolveText — every entry parsed (ParseManifest), a map of the
// newest compatible entry per name, then a lookup per name in profile
// order — kept as resolveText's own oracle.
func resolveIndexRef(entries []ManifestEntry, arch string) map[string]ManifestEntry {
	best := make(map[string]ManifestEntry, len(entries))
	for _, e := range entries {
		m, err := rpm.ParseNVRA(e.NVRA)
		if err != nil || !rpm.ArchCompatible(arch, m.Arch) {
			continue
		}
		if cur, ok := best[m.Name]; ok {
			if c, _ := rpm.ParseNVRA(cur.NVRA); rpm.Compare(m.Version, c.Version) <= 0 {
				continue
			}
		}
		best[m.Name] = e
	}
	return best
}

func resolveEntriesRef(best map[string]ManifestEntry, names []string) ([]ManifestEntry, error) {
	entries := make([]ManifestEntry, len(names))
	for i, name := range names {
		e, ok := best[name]
		if !ok {
			return nil, fmt.Errorf("installer: package %q not present in distribution", name)
		}
		entries[i] = e
	}
	return entries, nil
}

// resolveRef is the whole reference path: parse, index, look up.
func resolveRef(manifest []byte, arch string, names []string) ([]ManifestEntry, error) {
	all, err := ParseManifest(manifest)
	if err != nil {
		return nil, err
	}
	return resolveEntriesRef(resolveIndexRef(all, arch), names)
}

// checkResolve holds resolveText to the reference on one input: the same
// entries, or the same error text — transient exactly when the manifest is
// garbled.
func checkResolve(t *testing.T, manifest []byte, arch string, names []string) ([]ManifestEntry, error) {
	t.Helper()
	got, err := resolveText(manifest, arch, names)
	want, wantErr := resolveRef(manifest, arch, names)
	if (err == nil) != (wantErr == nil) || err != nil && err.Error() != wantErr.Error() {
		t.Fatalf("resolveText(%s, %q) says %v, the reference %v", arch, names, err, wantErr)
	}
	if _, garbled := ParseManifest(manifest); err != nil && IsTransient(err) != (garbled != nil) {
		t.Fatalf("resolveText(%s, %q) = %v: transient %v, garbled manifest %v", arch, names, err, IsTransient(err), garbled != nil)
	}
	if !slices.Equal(got, want) {
		t.Fatalf("resolveText(%s, %q) picked %q, the reference %q", arch, names, got, want)
	}
	return got, err
}

// TestResolveRule: the manifest rule the frontend's resolver is held to,
// case by case, and its two spellings agreeing on every case.
func TestResolveRule(t *testing.T) {
	manifest := []byte(strings.Join([]string{
		"tie-1.0-1.athlon 1 d-athlon redhat",
		"tie-1.0-1.i386 2 d-i386 redhat",
		"tie-1.0-1.noarch 3 d-noarch redhat",
		"odd%20name-1.0-1.i386 4 d-odd my%20mirror",
		"ia32-2.0-1.i386 5 d-ia32 -",
		"ia32-3.0-1.athlon 6 d-ia32-athlon -",
		"doc-1.0-1.noarch 7 d-doc redhat",
		"gm-src-1.0-1.src 8 d-src redhat",
		"nodot 9 d-x redhat",
		"norelease.i386 10 d-x redhat",
		"dup-1.0-1.i386 11 d-first redhat",
		"dup-1.0-1.i386 11 d-second redhat",
		"",
		"newer-1.0-10.i386 12 d-10 redhat",
		"newer-1.0-9.i386 13 d-9 redhat",
		"newer-1.0-2~rc1.i386 14 d-rc redhat",
	}, "\n"))
	digests := func(entries []ManifestEntry) (ds []string) {
		for _, e := range entries {
			ds = append(ds, e.Digest)
		}
		return ds
	}
	for _, tc := range []struct {
		arch, names, digests string
	}{
		// A version tie across arches: the first compatible line wins.
		{"athlon", "tie", "d-athlon"},
		{"i386", "tie", "d-i386"},
		{"alpha", "tie", "d-noarch"},
		// An escaped name is looked up by its unescaped spelling.
		{"i386", "odd name", "d-odd"},
		// Athlon takes i386 (and its own newer build); i386 takes no athlon.
		{"athlon", "ia32", "d-ia32-athlon"},
		{"i386", "ia32", "d-ia32"},
		{"alpha", "doc,gm-src", "d-doc,d-src"},
		// A duplicate line is a tie; a name asked twice is answered twice.
		{"i386", "dup,newer,dup", "d-first,d-10,d-first"},
	} {
		names := strings.Split(tc.names, ",")
		got, err := checkResolve(t, manifest, tc.arch, names)
		if err != nil || strings.Join(digests(got), ",") != tc.digests {
			t.Errorf("resolveText(%s, %q) = %q, %v; want digests %s", tc.arch, names, got, err, tc.digests)
		}
	}
	got, _ := checkResolve(t, manifest, "i386", []string{"odd name", "ia32"})
	if want := (ManifestEntry{NVRA: "odd name-1.0-1.i386", Size: 4, Digest: "d-odd", Source: "my mirror"}); got[0] != want || got[1].Source != "" {
		t.Errorf("entries %q, want %q and a \"-\" source read as none", got, want)
	}

	// Lines whose NVRA does not parse are skipped, not refused; a name only
	// they carry is missing, in the words the installer has always used.
	for _, name := range []string{"nodot", "norelease", "no-such-package"} {
		_, err := checkResolve(t, manifest, "i386", []string{"tie", name})
		if want := fmt.Sprintf("installer: package %q not present in distribution", name); err == nil || err.Error() != want || IsTransient(err) {
			t.Errorf("resolveText(%q) = %v, want the permanent error %q", name, err, want)
		}
	}
	// A garbled line anywhere is a torn transfer, even after every winner.
	torn := append(slices.Clip(manifest), "\nlate-1.0-1.i386 15 digest-only"...)
	if _, err := checkResolve(t, torn, "i386", []string{"tie"}); !IsTransient(err) || !strings.Contains(err.Error(), "manifest line 17") {
		t.Errorf("garbled line 17: %v, want a transient error naming it", err)
	}
}

// checkResolution holds the frontend's resolver to the manifest rule on one
// repository: the section AppendResolution writes, as the node reads it back
// (ReadResolution), lists what resolveText picks from the served manifest,
// or fails in the same words, and ResolveProfile picks the same packages.
func checkResolution(t *testing.T, repo *rpm.Repository, arch string, names []string) {
	t.Helper()
	srv := NewRepoServer(repo)
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, httptest.NewRequest("GET", manifestPath, nil))
	if _, err := ParseManifest(rec.Body.Bytes()); err != nil {
		t.Fatalf("the served manifest does not parse: %v", err)
	}
	want, wantErr := resolveText(rec.Body.Bytes(), arch, names)
	sameErr := func(err error) bool {
		return (err == nil) == (wantErr == nil) && (err == nil || err.Error() == wantErr.Error() && !IsTransient(err))
	}
	section, err := srv.AppendResolution(nil, arch, names)
	if !sameErr(err) {
		t.Fatalf("AppendResolution(%s, %q) says %v, the manifest rule %v", arch, names, err, wantErr)
	}
	got, err := ReadResolution(string(section[1:]), names)
	if !sameErr(err) || !slices.Equal(got, want) {
		t.Fatalf("the kickstart's resolution for %s, %q reads %q, %v; the manifest rule picks %q, %v", arch, names, got, err, want, wantErr)
	}
	d := &Distribution{Name: "d", Repo: repo}
	pkgs, err := d.ResolveProfile(&kickstart.Profile{Arch: arch, Packages: names})
	if (err == nil) != (wantErr == nil) || err != nil && err.Error() != `dist "d": `+wantErr.Error() {
		t.Fatalf("ResolveProfile(%s, %q) says %v, the manifest rule %v", arch, names, err, wantErr)
	}
	for i, p := range pkgs {
		if p.NVRA() != want[i].NVRA || p.Digest != want[i].Digest {
			t.Fatalf("ResolveProfile(%s, %q) picks %s for %q; the manifest rule %s", arch, names, p.NVRA(), names[i], want[i].NVRA)
		}
	}
}

// TestResolutionMatchesManifestRule: over seeded random repositories —
// version ties across i386, athlon, ia64, noarch and src builds, names that
// escape, NVRAs that read back as another name, version or arch, epochs,
// names the repository lacks and names asked twice — the frontend's
// resolution is the manifest rule's for a node of every architecture.
func TestResolutionMatchesManifestRule(t *testing.T) {
	names := []string{"glibc", "kernel", "kernel-smp", "odd name", "100%", "a", "a-1", "gm-src"}
	versions := []string{"1.0", "1.00", "1_0", "1.1", "2.0", "10", "1.0-1"}
	releases := []string{"1", "2", "10", "1.x", "rc-1"}
	arches := []string{"i386", "athlon", "ia64", "noarch", "src", "i686.noarch"}
	resolved := 0
	for seed := range int64(300) {
		r := rand.New(rand.NewSource(seed))
		pick := func(from []string) string { return from[r.Intn(len(from))] }
		repo := rpm.NewRepository("r")
		var held []string
		for range 1 + r.Intn(30) {
			p := rpm.New(pick(names), v(pick(versions), pick(releases)), pick(arches), rpm.FileEntry{Path: "/f", Data: []byte{byte(r.Intn(256))}})
			p.Source = pick([]string{"redhat", "my mirror", "-", "up%dates"})
			if r.Intn(5) == 0 {
				p.Version.Epoch = r.Intn(3)
			}
			repo.Add(p)
			held = append(held, p.Name)
		}
		for _, from := range [][]string{held, names} {
			var ask []string
			for range 1 + r.Intn(8) {
				ask = append(ask, pick(from)) // a name asked twice, often
			}
			if r.Intn(4) == 0 {
				ask = slices.Insert(ask, r.Intn(len(ask)+1), "no-such-package")
			}
			for _, arch := range []string{"i386", "athlon", "ia64", "alpha"} {
				checkResolution(t, repo, arch, ask)
				if _, err := resolveText([]byte(FormatManifest(Manifest(repo))), arch, ask); err == nil {
					resolved++
				}
			}
		}
	}
	if resolved < 300 {
		t.Errorf("only %d of 2400 asks resolved; the draw tests little but missing names", resolved)
	}
}

// TestReadResolutionTornOrMissing: a section cut short anywhere, missing or
// listing packages out of turn is torn — transient, and nothing comes back;
// one with any one bit flipped is torn or reads exactly as sent. A sealed
// section without a name's line is that package missing from the
// distribution, permanently, in the installer's words.
func TestReadResolutionTornOrMissing(t *testing.T) {
	repo := rpm.NewRepository("r")
	for _, name := range []string{"glibc", "bash", "kernel"} {
		repo.Add(rpm.New(name, v("1.0", "1"), rpm.ArchI386, rpm.FileEntry{Path: "/" + name, Data: []byte(name)}))
	}
	srv := NewRepoServer(repo)
	names := []string{"glibc", "bash", "kernel", "bash"}
	b, err := srv.AppendResolution(nil, "i386", names)
	if err != nil {
		t.Fatal(err)
	}
	section := string(b[1:])
	whole, err := ReadResolution(section, names)
	if err != nil || len(whole) != len(names) || whole[1] != whole[3] || whole[2].NVRA != "kernel-1.0-1.i386" {
		t.Fatalf("ReadResolution = %q, %v; want glibc, bash, kernel, bash", whole, err)
	}
	torn := func(what, section string, names []string) {
		t.Helper()
		if got, err := ReadResolution(section, names); got != nil || !IsTransient(err) {
			t.Errorf("%s: ReadResolution = %q, %v; want a transient error and nothing", what, got, err)
		}
	}
	for i := range len(section) {
		torn(fmt.Sprintf("cut at byte %d", i), section[:i], names)
	}
	for i := range 8 * len(section) {
		flipped := []byte(section)
		flipped[i/8] ^= 1 << (i % 8)
		if got, err := ReadResolution(string(flipped), names); !slices.Equal(got, whole) && (got != nil || !IsTransient(err)) {
			t.Errorf("bit %d flipped: ReadResolution = %q, %v; want the section as sent or a transient error", i, got, err)
		}
	}
	torn("names in another order", section, []string{"bash", "glibc", "kernel", "bash"})
	torn("a name fewer", section, names[:3])

	repo.Remove("kernel-1.0-1.i386")
	want := `installer: package "kernel" not present in distribution`
	b, err = srv.AppendResolution(nil, "i386", names)
	if err == nil || err.Error() != want {
		t.Errorf("AppendResolution without kernel: %v, want %q", err, want)
	}
	if got, err := ReadResolution(string(b[1:]), names); got != nil || err == nil || err.Error() != want || IsTransient(err) {
		t.Errorf("ReadResolution without kernel = %q, %v; want the permanent %q", got, err, want)
	}
}

// TestResolveCostsWhatItKeeps: the frontend resolves the synthetic compute
// profile into a buffer that holds the section without allocating, a
// profile cache that keeps the section for the tree's state hands it out
// with no allocation beside the profile's own, and the node reads the
// section back into its entries in at most two allocations; the manifest
// round this replaced — the frontend formats the manifest, the node resolves
// over all of it — is logged beside them.
func TestResolveCostsWhatItKeeps(t *testing.T) {
	d := Build("d", kickstart.DefaultFramework(), Source{"redhat", SyntheticRedHat()})
	req := kickstart.Request{Appliance: "compute", Arch: "i386", NodeName: "compute-0-0", Attrs: kickstart.DefaultAttrs("u", "h")}
	profile, err := d.Framework.Generate(req)
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(d)
	b, err := srv.AppendResolution(nil, "i386", profile.Packages)
	if err != nil {
		t.Fatal(err)
	}
	buf, section := make([]byte, 0, len(b)), string(b[1:])
	if n := testing.AllocsPerRun(20, func() { srv.AppendResolution(buf, "i386", profile.Packages) }); n != 0 {
		t.Errorf("AppendResolution allocates %v times into a buffer that holds the section; want none", n)
	}
	if n := testing.AllocsPerRun(20, func() { ReadResolution(section, profile.Packages) }); n > 2 {
		t.Errorf("ReadResolution allocates %v times; want at most two, the entries and the seal's buffer", n)
	}
	pc := kickstart.NewProfileCache(d.Framework)
	kept := func() { pc.Resolved(req, d.Repo.Stamp(), srv.Section) }
	if p, _ := pc.Resolved(req, d.Repo.Stamp(), srv.Section); p.Manifest != section {
		t.Fatalf("the kept section is\n%s\nwant\n%s", p.Manifest, section)
	}
	generate := testing.AllocsPerRun(20, func() { pc.Generate(req) })
	if n := testing.AllocsPerRun(20, kept); n != generate {
		t.Errorf("a kept section costs %v allocations beside the profile's %v; want none", n-generate, generate)
	}
	const rounds = 100
	timed := func(f func()) time.Duration {
		start := time.Now()
		for range rounds {
			f()
		}
		return time.Since(start) / rounds
	}
	frontend := timed(func() { srv.AppendResolution(buf, "i386", profile.Packages) })
	hit := timed(kept)
	node := timed(func() { ReadResolution(section, profile.Packages) })
	manifest := timed(func() { resolveText([]byte(FormatManifest(Manifest(d.Repo))), "i386", profile.Packages) })
	t.Logf("%d names, a %d-byte section: the frontend resolves in %v (stamps out the profile with its kept section in %v), the node reads it in %v; formatting and resolving the manifest took %v",
		len(profile.Packages), len(section), frontend, hit, node, manifest)
}

// TestAppendPathEscapedIsPathEscape: the manifest's escaper spells every
// byte, and every odd name, exactly as url.PathEscape does, so the served
// manifest and the bundle request are the bytes they were.
func TestAppendPathEscapedIsPathEscape(t *testing.T) {
	for c := range 256 {
		s := string([]byte{byte(c)})
		if got, want := string(appendPathEscaped(nil, s)), url.PathEscape(s); got != want {
			t.Errorf("byte %#02x: %q, want %q", c, got, want)
		}
	}
	odd := []string{"", "plain-1.0-1.i386", "odd name", "tab\there", "100%", "%41", "ünïcödé-ß", "a/b;c,d?e",
		"$&+:=@~_.-", "\x00\x7f\x80\xff", "日本語 パッケージ-1.0-1.i386"}
	for _, s := range odd {
		if got, want := string(appendPathEscaped([]byte("prefix "), s)), "prefix "+url.PathEscape(s); got != want {
			t.Errorf("%q: %q, want %q", s, got, want)
		}
	}
	// The served manifest of a repository of such names, line by line as
	// url.PathEscape would spell it.
	repo := rpm.NewRepository("r")
	for i, name := range odd[1:] {
		p := rpm.New(name, v("1.0", strconv.Itoa(i)), rpm.ArchI386, rpm.FileEntry{Path: "/f", Data: []byte(name)})
		p.Source = odd[len(odd)-1-i]
		repo.Add(p)
	}
	var want strings.Builder
	for _, p := range repo.Sorted() {
		fmt.Fprintf(&want, "%s %d %s %s\n", url.PathEscape(p.NVRA()), p.Size, p.Digest, url.PathEscape(cmp.Or(p.Source, "-")))
	}
	rec := httptest.NewRecorder()
	NewRepoServer(repo).ServeHTTP(rec, httptest.NewRequest("GET", manifestPath, nil))
	if rec.Body.String() != want.String() {
		t.Errorf("served manifest:\n%s\nwant:\n%s", rec.Body.String(), want.String())
	}
}
