package rpm

import (
	"bytes"
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"sync"
	"testing"
)

func TestRepositoryNewestPicksHighestVersion(t *testing.T) {
	r := NewRepository("redhat")
	r.Add(New("glibc", v("2.2.4", "13"), ArchI386))
	r.Add(New("glibc", v("2.2.4", "24"), ArchI386)) // security update
	r.Add(New("glibc", v("2.2.2", "10"), ArchI386))
	got := r.Newest("glibc", ArchI386)
	if got == nil || got.Version.Release != "24" {
		t.Fatalf("Newest = %v, want release 24", got)
	}
}

func TestRepositoryNewestArchCompatibility(t *testing.T) {
	r := NewRepository("redhat")
	r.Add(New("kernel", v("2.4.9", "31"), ArchI386))
	r.Add(New("kernel", v("2.4.9", "31"), ArchAthlon))
	r.Add(New("rocks-dist", v("2.2.1", "1"), ArchNoarch))

	if got := r.Newest("kernel", ArchAthlon); got == nil || got.Arch != ArchAthlon {
		t.Errorf("athlon node should prefer the athlon kernel, got %v", got)
	}
	if got := r.Newest("kernel", ArchI386); got == nil || got.Arch != ArchI386 {
		t.Errorf("i386 node must not get the athlon kernel, got %v", got)
	}
	if got := r.Newest("rocks-dist", ArchIA64); got == nil {
		t.Errorf("noarch packages should match any architecture")
	}
	if got := r.Newest("kernel", ArchIA64); got != nil {
		t.Errorf("ia64 node must not receive an i386 kernel, got %v", got)
	}
}

func TestRepositoryAthlonFallsBackToI386(t *testing.T) {
	r := NewRepository("redhat")
	r.Add(New("emacs", v("20.7", "34"), ArchI386))
	if got := r.Newest("emacs", ArchAthlon); got == nil {
		t.Error("athlon node should fall back to the i386 package")
	}
}

func TestRepositoryAddReplacesSameNVRA(t *testing.T) {
	r := NewRepository("local")
	a := New("foo", v("1.0", "1"), ArchI386, FileEntry{Path: "/a", Data: []byte("old")})
	b := New("foo", v("1.0", "1"), ArchI386, FileEntry{Path: "/a", Data: []byte("new")})
	r.Add(a)
	r.Add(b)
	if r.Len() != 1 {
		t.Fatalf("Len = %d, want 1", r.Len())
	}
	if got := string(r.Get("foo-1.0-1.i386").Files[0].Data); got != "new" {
		t.Errorf("re-adding the same NVRA should replace the payload, got %q", got)
	}
}

func TestRepositoryRemove(t *testing.T) {
	r := NewRepository("local")
	r.Add(New("foo", v("1.0", "1"), ArchI386))
	if !r.Remove("foo-1.0-1.i386") {
		t.Fatal("Remove returned false for an existing package")
	}
	if r.Remove("foo-1.0-1.i386") {
		t.Fatal("Remove returned true for a missing package")
	}
	if r.Newest("foo", ArchI386) != nil {
		t.Error("package still resolvable after Remove")
	}
}

func TestRepositoryResolveClosure(t *testing.T) {
	r := NewRepository("dist")
	mpich := New("mpich", v("1.2.2", "1"), ArchI386)
	mpich.Requires = []string{"glibc", "gcc"}
	gcc := New("gcc", v("2.96", "98"), ArchI386)
	gcc.Requires = []string{"glibc"}
	r.Add(mpich)
	r.Add(gcc)
	r.Add(New("glibc", v("2.2.4", "24"), ArchI386))

	got, err := r.Resolve(ArchI386, []string{"mpich"})
	if err != nil {
		t.Fatalf("Resolve: %v", err)
	}
	var names []string
	for _, p := range got {
		names = append(names, p.Name)
	}
	want := "mpich glibc gcc"
	if strings.Join(names, " ") != want {
		t.Errorf("Resolve order = %v, want %s", names, want)
	}
}

func TestRepositoryResolveMissingNamesCulprit(t *testing.T) {
	r := NewRepository("dist")
	p := New("pbs", v("2.3.12", "1"), ArchI386)
	p.Requires = []string{"libtcl"}
	r.Add(p)
	_, err := r.Resolve(ArchI386, []string{"pbs"})
	if err == nil {
		t.Fatal("Resolve should fail on a missing dependency")
	}
	if !strings.Contains(err.Error(), "libtcl") || !strings.Contains(err.Error(), "pbs") {
		t.Errorf("error should name both the missing package and what required it: %v", err)
	}
}

func TestRepositoryResolveCycleTerminates(t *testing.T) {
	r := NewRepository("dist")
	a := New("a", v("1", "1"), ArchI386)
	a.Requires = []string{"b"}
	b := New("b", v("1", "1"), ArchI386)
	b.Requires = []string{"a"}
	r.Add(a)
	r.Add(b)
	got, err := r.Resolve(ArchI386, []string{"a"})
	if err != nil {
		t.Fatalf("Resolve: %v", err)
	}
	if len(got) != 2 {
		t.Errorf("cycle should resolve each package once, got %d", len(got))
	}
}

func TestRepositoryNamesAndAll(t *testing.T) {
	r := NewRepository("dist")
	r.Add(New("zsh", v("3.0.8", "8"), ArchI386))
	r.Add(New("bash", v("2.05", "8"), ArchI386))
	r.Add(New("bash", v("2.05a", "1"), ArchI386))
	if got := r.Names(); len(got) != 2 || got[0] != "bash" || got[1] != "zsh" {
		t.Errorf("Names = %v", got)
	}
	all := r.All()
	if len(all) != 3 || all[0].NVRA() != "bash-2.05-8.i386" || all[1].NVRA() != "bash-2.05a-1.i386" {
		t.Errorf("All = %v", all)
	}
	if got := r.Versions("bash"); len(got) != 2 || got[0].Version.Version != "2.05a" {
		t.Errorf("Versions should be newest-first, got %v", got)
	}
}

func TestRepositoryTotalSize(t *testing.T) {
	r := NewRepository("dist")
	p := New("a", v("1", "1"), ArchI386)
	p.Size = 1000
	q := New("b", v("1", "1"), ArchI386)
	q.Size = 234
	r.Add(p)
	r.Add(q)
	if got := r.TotalSize(); got != 1234 {
		t.Errorf("TotalSize = %d, want 1234", got)
	}
}

func TestRepositoryConcurrentAccess(t *testing.T) {
	// The reinstall experiments read one repository from many node
	// goroutines while rocks-dist may be refreshing it; exercise that under
	// the race detector.
	r := NewRepository("dist")
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(2)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < 50; j++ {
				r.Add(New(fmt.Sprintf("pkg%d", i), v("1.0", fmt.Sprint(j)), ArchI386))
			}
		}(i)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < 50; j++ {
				r.Newest(fmt.Sprintf("pkg%d", i), ArchI386)
				r.Names()
			}
		}(i)
	}
	wg.Wait()
	if r.Len() != 8*50 {
		t.Errorf("Len = %d, want %d", r.Len(), 8*50)
	}
}

// scanRepo is the repository as it was before the NVRA index: one map by
// name, and a scan of every list that formats an NVRA per comparison for
// Add, Remove and Get. TestRepositoryMatchesLinearScan keeps it as the
// reference the indexed Repository must agree with.
type scanRepo struct{ pkgs map[string][]*Package }

func (r *scanRepo) add(p *Package) {
	list := r.pkgs[p.Name]
	for i, q := range list {
		if q.NVRA() == p.NVRA() {
			list[i] = p
			return
		}
	}
	r.pkgs[p.Name] = append(list, p)
}

func (r *scanRepo) remove(nvra string) bool {
	for name, list := range r.pkgs {
		for i, q := range list {
			if q.NVRA() == nvra {
				r.pkgs[name] = append(list[:i:i], list[i+1:]...)
				if len(r.pkgs[name]) == 0 {
					delete(r.pkgs, name)
				}
				return true
			}
		}
	}
	return false
}

func (r *scanRepo) get(nvra string) *Package {
	for _, list := range r.pkgs {
		for _, q := range list {
			if q.NVRA() == nvra {
				return q
			}
		}
	}
	return nil
}

func (r *scanRepo) newest(name, arch string) *Package {
	var best *Package
	for _, q := range r.pkgs[name] {
		if !archCompatible(arch, q.Arch) {
			continue
		}
		if best == nil || Compare(q.Version, best.Version) > 0 ||
			(Compare(q.Version, best.Version) == 0 && archRank(q.Arch) > archRank(best.Arch)) {
			best = q
		}
	}
	return best
}

func (r *scanRepo) nvras() []string {
	var out []string
	for _, list := range r.pkgs {
		for _, q := range list {
			out = append(out, q.NVRA())
		}
	}
	sort.Strings(out)
	return out
}

// TestRepositoryMatchesLinearScan drives the indexed repository and the old
// linear scan through the same seeded sequence of adds (a third of them
// re-pushing an NVRA already present, with a new payload), removes and
// lookups. Versions include pairs that compare equal but spell differently
// ("1.0"/"1.00"), where Newest's answer depends on the order packages were
// stored in, so a replace that moved its entry would show. Every lookup must
// return the very same *Package, and Body must be the encoding of the package
// stored now — never of the one it replaced.
func TestRepositoryMatchesLinearScan(t *testing.T) {
	names := []string{"glibc", "kernel", "kernel-smp", "openssl", "mpich", "pbs"}
	versions := []string{"1.0", "1.00", "1.1", "2.0", "2.0a", "10.0"}
	releases := []string{"1", "2", "01"}
	arches := []string{ArchI386, ArchAthlon, ArchIA64, ArchNoarch}
	for seed := int64(1); seed <= 5; seed++ {
		rng := rand.New(rand.NewSource(seed))
		pick := func(from []string) string { return from[rng.Intn(len(from))] }
		repo, ref := NewRepository("r"), &scanRepo{pkgs: map[string][]*Package{}}
		for step := 0; step < 2000; step++ {
			m := Metadata{Name: pick(names), Version: v(pick(versions), pick(releases)), Arch: pick(arches)}
			switch op := rng.Intn(10); {
			case op < 5:
				p := New(m.Name, m.Version, m.Arch, FileEntry{Path: "/f", Data: []byte(fmt.Sprint(step))})
				repo.Add(p)
				ref.add(p)
			case op < 7:
				if got, want := repo.Remove(m.NVRA()), ref.remove(m.NVRA()); got != want {
					t.Fatalf("seed %d step %d: Remove(%s) = %v, reference %v", seed, step, m.NVRA(), got, want)
				}
			default:
				got, want := repo.Get(m.NVRA()), ref.get(m.NVRA())
				if got != want {
					t.Fatalf("seed %d step %d: Get(%s) = %v, reference %v", seed, step, m.NVRA(), got, want)
				}
				body := repo.Body(m.NVRA())
				if (body == nil) != (want == nil) || want != nil && !bytes.Equal(body, want.Bytes()) {
					t.Fatalf("seed %d step %d: Body(%s) is not the stored package's encoding", seed, step, m.NVRA())
				}
			}
			if got, want := repo.Newest(m.Name, m.Arch), ref.newest(m.Name, m.Arch); got != want {
				t.Fatalf("seed %d step %d: Newest(%s, %s) = %v, reference %v", seed, step, m.Name, m.Arch, got, want)
			}
			if step%50 != 0 {
				continue
			}
			all := repo.All()
			got := make([]string, len(all))
			for i, p := range all {
				got[i] = p.NVRA()
				if ref.get(got[i]) != p {
					t.Fatalf("seed %d step %d: All holds a %s the reference does not", seed, step, got[i])
				}
				if i > 0 && (all[i-1].Name > p.Name || all[i-1].Name == p.Name && Compare(all[i-1].Version, p.Version) > 0) {
					t.Fatalf("seed %d step %d: All out of order at %s, %s", seed, step, got[i-1], got[i])
				}
			}
			sort.Strings(got)
			listed := repo.NVRAs()
			sort.Strings(listed)
			if want := ref.nvras(); fmt.Sprint(got) != fmt.Sprint(want) || fmt.Sprint(listed) != fmt.Sprint(want) || repo.Len() != len(want) {
				t.Fatalf("seed %d step %d: All = %v, NVRAs = %v, Len = %d; reference %v", seed, step, got, listed, repo.Len(), want)
			}
			var refNames []string
			for name := range ref.pkgs {
				refNames = append(refNames, name)
			}
			sort.Strings(refNames)
			if got := repo.Names(); fmt.Sprint(got) != fmt.Sprint(refNames) {
				t.Fatalf("seed %d step %d: Names = %v, reference %v", seed, step, got, refNames)
			}
		}
	}
}

// TestRepositoryNVRASharedByTwoNames: a dash in a version lets two package
// names spell one NVRA. The NVRA is the identity, so the later Add replaces
// the earlier package whichever name it was filed under.
func TestRepositoryNVRASharedByTwoNames(t *testing.T) {
	r := NewRepository("r")
	r.Add(New("a-1", v("2", "3"), ArchI386))
	b := New("a", v("1-2", "3"), ArchI386)
	r.Add(b)
	if r.Len() != 1 || r.Get("a-1-2-3.i386") != b || r.Newest("a-1", ArchI386) != nil || r.Newest("a", ArchI386) != b {
		t.Fatalf("Len = %d, Names = %v: the replaced package is still reachable", r.Len(), r.Names())
	}
	if !r.Remove("a-1-2-3.i386") || r.Len() != 0 || len(r.Names()) != 0 {
		t.Fatalf("after Remove: Len = %d, Names = %v", r.Len(), r.Names())
	}
}

// TestRepositorySortedView: Sorted is every package in NVRA order after any
// sequence of adds, replacements and removals, with nothing sorted per call,
// and a view handed out earlier is never written again — a manifest being
// built from it does not see a half-applied Add.
func TestRepositorySortedView(t *testing.T) {
	names := []string{"glibc", "kernel", "kernel-smp", "a", "a-1"}
	versions := []string{"1.0", "1-2", "2", "10.0"}
	rng := rand.New(rand.NewSource(7))
	pick := func(from []string) string { return from[rng.Intn(len(from))] }
	repo, ref := NewRepository("r"), map[string]*Package{}
	for step := 0; step < 2000; step++ {
		held := repo.Sorted()
		before := append([]*Package(nil), held...)
		p := New(pick(names), v(pick(versions), pick([]string{"1", "3"})), pick([]string{ArchI386, ArchNoarch}))
		if rng.Intn(3) == 0 {
			repo.Remove(p.NVRA())
			delete(ref, p.NVRA())
		} else {
			repo.Add(p)
			ref[p.NVRA()] = p
		}
		for i := range before {
			if held[i] != before[i] {
				t.Fatalf("step %d: a view handed out before the change was written to at %d", step, i)
			}
		}
		view := repo.Sorted()
		if len(view) != len(ref) || len(view) != repo.Len() {
			t.Fatalf("step %d: Sorted holds %d packages, the repository %d, the reference %d", step, len(view), repo.Len(), len(ref))
		}
		for i, q := range view {
			if ref[q.NVRA()] != q || i > 0 && view[i-1].NVRA() >= q.NVRA() {
				t.Fatalf("step %d: Sorted[%d] = %s after %s: stale or out of order", step, i, q.NVRA(), view[max(i-1, 0)].NVRA())
			}
		}
	}
}
