package dist

import (
	"cmp"
	"fmt"
	"net/http/httptest"
	"net/url"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"testing"
	"unsafe"

	"rocks/internal/kickstart"
	"rocks/internal/rpm"
)

// resolveIndexRef and resolveEntriesRef are the rule the installer ran
// before Resolve took it over — every entry parsed (ParseManifest), a map of
// the newest compatible entry per name, then a lookup per name in profile
// order — kept as Resolve's oracle.
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

// checkResolve holds Resolve to the reference on one input: the same
// entries, or the same error text — transient exactly when the manifest is
// garbled.
func checkResolve(t *testing.T, manifest []byte, arch string, names []string) ([]ManifestEntry, error) {
	t.Helper()
	got, err := Resolve(manifest, arch, names)
	want, wantErr := resolveRef(manifest, arch, names)
	if (err == nil) != (wantErr == nil) || err != nil && err.Error() != wantErr.Error() {
		t.Fatalf("Resolve(%s, %q) says %v, the reference %v", arch, names, err, wantErr)
	}
	if _, garbled := ParseManifest(manifest); err != nil && IsTransient(err) != (garbled != nil) {
		t.Fatalf("Resolve(%s, %q) = %v: transient %v, garbled manifest %v", arch, names, err, IsTransient(err), garbled != nil)
	}
	if !slices.Equal(got, want) {
		t.Fatalf("Resolve(%s, %q) picked %q, the reference %q", arch, names, got, want)
	}
	return got, err
}

// TestResolveRule: the rule, case by case, and the reference agreeing on
// every case.
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
			t.Errorf("Resolve(%s, %q) = %q, %v; want digests %s", tc.arch, names, got, err, tc.digests)
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
			t.Errorf("Resolve(%q) = %v, want the permanent error %q", name, err, want)
		}
	}
	// A garbled line anywhere is a torn transfer, even after every winner.
	torn := append(slices.Clip(manifest), "\nlate-1.0-1.i386 15 digest-only"...)
	if _, err := checkResolve(t, torn, "i386", []string{"tie"}); !IsTransient(err) || !strings.Contains(err.Error(), "manifest line 17") {
		t.Errorf("garbled line 17: %v, want a transient error naming it", err)
	}
	// The caller's buffer is its own again once Resolve returns.
	got, _ = checkResolve(t, manifest, "i386", []string{"tie", "odd name", "doc"})
	before := fmt.Sprintf("%q", got)
	for i := range manifest {
		manifest[i] = 'X'
	}
	if after := fmt.Sprintf("%q", got); after != before {
		t.Errorf("overwriting the manifest changed what Resolve returned: %s, was %s", after, before)
	}
}

// TestResolveCostsWhatItKeeps: resolving the synthetic compute profile
// against the synthetic manifest allocates little beyond what it returns —
// the entries and their strings — however much of the text it walks, and as
// many times for the whole profile as for a tenth of it; the reference path,
// which keeps every entry and a map of every name, is logged beside it.
func TestResolveCostsWhatItKeeps(t *testing.T) {
	d := Build("d", kickstart.DefaultFramework(), Source{"redhat", SyntheticRedHat()})
	profile, err := d.Framework.Generate(kickstart.Request{Appliance: "compute", Arch: "i386",
		NodeName: "compute-0-0", Attrs: kickstart.DefaultAttrs("u", "h")})
	if err != nil {
		t.Fatal(err)
	}
	text := []byte(FormatManifest(Manifest(d.Repo)))
	perCall := func(resolve func([]byte, string, []string) ([]ManifestEntry, error)) (entries []ManifestEntry, bytes uint64) {
		entries, err := resolve(text, "i386", profile.Packages) // warm
		if err != nil || len(entries) != len(profile.Packages) {
			t.Fatalf("%d entries for %d names: %v", len(entries), len(profile.Packages), err)
		}
		const rounds = 20
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for range rounds {
			resolve(text, "i386", profile.Packages)
		}
		runtime.ReadMemStats(&after)
		return entries, (after.TotalAlloc - before.TotalAlloc) / rounds
	}
	entries, got := perCall(Resolve)
	kept := uint64(cap(entries)) * uint64(unsafe.Sizeof(ManifestEntry{}))
	for _, e := range entries {
		kept += uint64(len(e.NVRA) + len(e.Digest) + len(e.Source))
	}
	_, ref := perCall(resolveRef)
	t.Logf("%d names from %d bytes of manifest: Resolve allocates %d bytes (%.2f × the %d it returns), the reference path %d (%.2f ×)",
		len(entries), len(text), got, float64(got)/float64(kept), kept, ref, float64(ref)/float64(kept))
	if got > 2*kept {
		t.Errorf("Resolve allocates %d bytes a call, more than twice the %d it returns", got, kept)
	}
	count := func(names []string) float64 {
		return testing.AllocsPerRun(20, func() { Resolve(text, "i386", names) })
	}
	if all, tenth := count(profile.Packages), count(profile.Packages[:len(profile.Packages)/10]); all != tenth || all > 8 {
		t.Errorf("Resolve allocates %v times for %d names and %v for %d; want the same few", all, len(profile.Packages), tenth, len(profile.Packages)/10)
	}
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
