package rpm

import (
	"fmt"
	"sort"
	"sync"
)

// Repository is an in-memory collection of packages indexed by name. It is
// the unit rocks-dist manipulates: a Red Hat mirror, an updates directory,
// a contrib directory, and a local RPMS directory are all Repositories, and
// a built distribution is one too (§6.2).
//
// A Repository is safe for concurrent use; the installer fan-out in the
// reinstallation experiments reads one repository from many node goroutines.
type Repository struct {
	mu   sync.RWMutex
	name string
	pkgs map[string][]*Package // keyed by package name, unsorted
}

// NewRepository creates an empty repository. The name is used in package
// provenance (Metadata.Source) and diagnostics.
func NewRepository(name string) *Repository {
	return &Repository{name: name, pkgs: make(map[string][]*Package)}
}

// Name returns the repository's name.
func (r *Repository) Name() string { return r.name }

// Add inserts a package, stamping its Source with the repository name if
// the package does not already carry provenance, and its payload digest if
// it was built in memory and never serialized: every package reachable
// through a Repository carries its Digest, so the concurrent paths that
// serve and verify repository contents only ever read the field. Adding a
// package with an NVRA that is already present replaces the existing copy
// (a re-pushed package wins, matching wget mirror semantics).
func (r *Repository) Add(p *Package) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if p.Source == "" {
		p.Source = r.name
	}
	p.EnsureDigest()
	list := r.pkgs[p.Name]
	for i, q := range list {
		if q.NVRA() == p.NVRA() {
			list[i] = p
			return
		}
	}
	r.pkgs[p.Name] = append(list, p)
}

// Remove deletes the package with the given NVRA. It reports whether a
// package was removed.
func (r *Repository) Remove(nvra string) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
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

// Get returns the package with the exact NVRA, or nil.
func (r *Repository) Get(nvra string) *Package {
	r.mu.RLock()
	defer r.mu.RUnlock()
	for _, list := range r.pkgs {
		for _, q := range list {
			if q.NVRA() == nvra {
				return q
			}
		}
	}
	return nil
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

// Versions returns every package stored under the given name, newest first.
func (r *Repository) Versions(name string) []*Package {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := append([]*Package(nil), r.pkgs[name]...)
	sort.Slice(out, func(i, j int) bool { return Compare(out[i].Version, out[j].Version) > 0 })
	return out
}

// Names returns the sorted list of package names in the repository.
func (r *Repository) Names() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	names := make([]string, 0, len(r.pkgs))
	for n := range r.pkgs {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// All returns every package in the repository in stable (name, version,
// arch) order.
func (r *Repository) All() []*Package {
	r.mu.RLock()
	defer r.mu.RUnlock()
	var out []*Package
	for _, list := range r.pkgs {
		out = append(out, list...)
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

// Len reports the number of packages (all versions counted) in the
// repository.
func (r *Repository) Len() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	n := 0
	for _, list := range r.pkgs {
		n += len(list)
	}
	return n
}

// TotalSize reports the sum of the installed sizes of every package.
func (r *Repository) TotalSize() int64 {
	r.mu.RLock()
	defer r.mu.RUnlock()
	var n int64
	for _, list := range r.pkgs {
		for _, q := range list {
			n += q.Size
		}
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
