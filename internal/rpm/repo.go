package rpm

import (
	"cmp"
	"fmt"
	"slices"
	"sort"
	"strings"
	"sync"
)

// Repository is an in-memory collection of packages indexed by name and by
// NVRA. It is the unit rocks-dist manipulates: a Red Hat mirror, an updates
// directory, a contrib directory, and a local RPMS directory are all
// Repositories, and a built distribution is one too (§6.2).
//
// A Repository is safe for concurrent use; the installer fan-out in the
// reinstallation experiments reads one repository from many node goroutines.
// A package is never modified once a repository holds it: whoever needs a
// variant (the mirror re-stamping provenance on a baseline package) adds a
// copy, and the replaced entry takes its encoding with it.
type Repository struct {
	mu     sync.RWMutex
	name   string
	byName map[string][]*entry // every version of a name, unsorted
	byNVRA map[string]*entry
	// sorted is every package in NVRA order, a manifest's. Add and Remove
	// build its successor and never write into it, so Sorted hands it out.
	sorted []*Package
}

// entry is one stored package together with its wire encoding. The encoding
// belongs to the entry, not the Package, because the same *Package is shared
// by reference between repositories (source, distribution, child) of which
// at most one is served: only an entry that is asked for its body pays for
// one, and an Add that replaces an NVRA makes a new entry, so bytes of the
// replaced package cannot be served afterwards.
type entry struct {
	pkg  *Package
	once sync.Once
	body []byte // pkg.Bytes(), set by once
}

// NewRepository creates an empty repository. The name is used in package
// provenance (Metadata.Source) and diagnostics.
func NewRepository(name string) *Repository {
	return &Repository{name: name, byName: make(map[string][]*entry), byNVRA: make(map[string]*entry)}
}

// Name returns the repository's name.
func (r *Repository) Name() string { return r.name }

// Add inserts a package. One that carries no provenance or no payload digest
// (built in memory and never serialized) is stored as a copy stamped with the
// repository's name and its digest, so every package reachable through a
// Repository carries its Digest, and p itself — a verified package other
// nodes may hold (Held) — is never written. Adding a package with an NVRA
// that is already present replaces the existing copy (a re-pushed package
// wins, matching wget mirror semantics).
func (r *Repository) Add(p *Package) {
	if p.Source == "" || p.Digest == "" {
		q := *p
		q.Source = cmp.Or(q.Source, r.name)
		q.EnsureDigest()
		p = &q
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	nvra := p.NVRA()
	e := &entry{pkg: p}
	old := r.byNVRA[nvra]
	i := r.position(nvra)
	next := append(append(make([]*Package, 0, len(r.sorted)+1), r.sorted[:i]...), p)
	if old != nil {
		i++ // p takes old's place
	}
	r.sorted = append(next, r.sorted[i:]...)
	if old != nil && old.pkg.Name == p.Name {
		list := r.byName[p.Name]
		list[slices.Index(list, old)] = e
	} else {
		if old != nil {
			// Same NVRA filed under another name ("a-1" 2-3 and "a" 1-2-3).
			r.unlink(old)
		}
		r.byName[p.Name] = append(r.byName[p.Name], e)
	}
	r.byNVRA[nvra] = e
}

// position finds where the package with the given NVRA stands, or would
// stand, in sorted. Callers hold the lock.
func (r *Repository) position(nvra string) int {
	i, _ := slices.BinarySearchFunc(r.sorted, nvra, func(p *Package, nvra string) int {
		return strings.Compare(p.NVRA(), nvra)
	})
	return i
}

// unlink takes an entry out of its name's list. Callers hold the write lock.
func (r *Repository) unlink(e *entry) {
	name := e.pkg.Name
	list := r.byName[name]
	i := slices.Index(list, e)
	if list = append(list[:i:i], list[i+1:]...); len(list) == 0 {
		delete(r.byName, name)
	} else {
		r.byName[name] = list
	}
}

// Remove deletes the package with the given NVRA. It reports whether a
// package was removed.
func (r *Repository) Remove(nvra string) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	e := r.byNVRA[nvra]
	if e == nil {
		return false
	}
	delete(r.byNVRA, nvra)
	r.unlink(e)
	i := r.position(nvra)
	r.sorted = slices.Delete(slices.Clone(r.sorted), i, i+1)
	return true
}

// Get returns the package with the exact NVRA, or nil.
func (r *Repository) Get(nvra string) *Package {
	r.mu.RLock()
	defer r.mu.RUnlock()
	if e := r.byNVRA[nvra]; e != nil {
		return e.pkg
	}
	return nil
}

// Body returns the package with the exact NVRA in its on-disk format — what
// a distribution server sends for it — or nil. The package is encoded on the
// first call and the same bytes are returned from then on; callers must not
// modify them.
func (r *Repository) Body(nvra string) []byte {
	r.mu.RLock()
	e := r.byNVRA[nvra]
	r.mu.RUnlock()
	if e == nil {
		return nil
	}
	e.once.Do(func() { e.body = e.pkg.Bytes() })
	return e.body
}

// Newest returns the most recent version of the named package for the given
// architecture. Packages built for ArchNoarch match any architecture, and a
// request for ArchAthlon falls back to i386 packages the way RPM's
// architecture-compatibility ladder does. It returns nil if the repository
// has no matching package.
func (r *Repository) Newest(name, arch string) *Package {
	r.mu.RLock()
	defer r.mu.RUnlock()
	var best *Package
	for _, e := range r.byName[name] {
		q := e.pkg
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

// Versions returns every package stored under the given name, newest first.
func (r *Repository) Versions(name string) []*Package {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]*Package, 0, len(r.byName[name]))
	for _, e := range r.byName[name] {
		out = append(out, e.pkg)
	}
	sort.Slice(out, func(i, j int) bool { return Compare(out[i].Version, out[j].Version) > 0 })
	return out
}

// Names returns the sorted list of package names in the repository.
func (r *Repository) Names() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	names := make([]string, 0, len(r.byName))
	for n := range r.byName {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// NVRAs returns the NVRA of every package in the repository, in no
// particular order.
func (r *Repository) NVRAs() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]string, 0, len(r.byNVRA))
	for nvra := range r.byNVRA {
		out = append(out, nvra)
	}
	return out
}

// All returns every package in the repository in stable (name, version,
// arch) order.
func (r *Repository) All() []*Package {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]*Package, 0, len(r.byNVRA))
	for _, e := range r.byNVRA {
		out = append(out, e.pkg)
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Name != b.Name {
			return a.Name < b.Name
		}
		if c := Compare(a.Version, b.Version); c != 0 {
			return c < 0
		}
		return a.Arch < b.Arch
	})
	return out
}

// Sorted returns every package in NVRA order — its manifest's — without
// copying or sorting. The slice is never written again; callers must not.
func (r *Repository) Sorted() []*Package {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.sorted
}

// Len reports the number of packages (all versions counted) in the
// repository.
func (r *Repository) Len() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return len(r.byNVRA)
}

// TotalSize reports the sum of the installed sizes of every package.
func (r *Repository) TotalSize() int64 {
	r.mu.RLock()
	defer r.mu.RUnlock()
	var n int64
	for _, e := range r.byNVRA {
		n += e.pkg.Size
	}
	return n
}

// Resolve expands a list of package names into concrete packages, choosing
// the newest compatible version of each and recursively adding their
// Requires closure. Names are resolved in the order given; dependencies are
// appended after the package that pulled them in, each package appearing
// once. Unresolvable names produce an error naming the missing package —
// the error a Rocks administrator sees when a node file names a package the
// distribution does not carry.
func (r *Repository) Resolve(arch string, names []string) ([]*Package, error) {
	seen := make(map[string]bool)
	var out []*Package
	var walk func(name, wantedBy string) error
	walk = func(name, wantedBy string) error {
		if seen[name] {
			return nil
		}
		seen[name] = true
		p := r.Newest(name, arch)
		if p == nil {
			if wantedBy != "" {
				return fmt.Errorf("rpm: package %q (required by %q) not found in repository %q for arch %s", name, wantedBy, r.name, arch)
			}
			return fmt.Errorf("rpm: package %q not found in repository %q for arch %s", name, r.name, arch)
		}
		out = append(out, p)
		for _, dep := range p.Requires {
			if err := walk(dep, name); err != nil {
				return err
			}
		}
		return nil
	}
	for _, n := range names {
		if err := walk(n, ""); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// ArchCompatible reports whether a package built for pkgArch can install on
// a node of arch nodeArch: exact matches, noarch and source packages
// everywhere, and i386 packages on athlon nodes.
func ArchCompatible(nodeArch, pkgArch string) bool { return archCompatible(nodeArch, pkgArch) }

// archCompatible reports whether a package built for pkgArch can install on
// a node of arch nodeArch.
func archCompatible(nodeArch, pkgArch string) bool {
	if pkgArch == ArchNoarch || pkgArch == ArchSRPM {
		return true
	}
	if nodeArch == pkgArch {
		return true
	}
	// Athlon nodes run i386 packages (the compatibility ladder the Meteor
	// cluster relies on for its mixed IA-32/Athlon compute nodes).
	return nodeArch == ArchAthlon && pkgArch == ArchI386
}

// archRank prefers the most specific architecture when versions tie.
func archRank(arch string) int {
	switch arch {
	case ArchNoarch:
		return 0
	case ArchI386:
		return 1
	default:
		return 2
	}
}
