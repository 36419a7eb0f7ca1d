package rpm

import (
	"cmp"
	"hash/crc32"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

var states atomic.Uint64 // the process-wide sequence Stamps are drawn from

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
	byName map[string][]*Package // every version of a name, unsorted
	byNVRA map[string]*entry
	// sorted is every package in NVRA order, a manifest's. Add and Remove
	// build its successor and never write into it, so Sorted hands it out.
	sorted []*Package
	// stamp backs Stamp: Add and Remove take the next one under the write lock.
	stamp atomic.Uint64
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
	sum  uint32 // body's CRC-32 (IEEE), set with it
}

// NewRepository creates an empty repository. The name is used in package
// provenance (Metadata.Source) and diagnostics.
func NewRepository(name string) *Repository {
	r := &Repository{name: name, byName: make(map[string][]*Package), byNVRA: make(map[string]*entry)}
	r.stamp.Store(states.Add(1))
	return r
}

// Stamp names the repository's current state: it changes with every Add and
// Remove, and no other repository in the process has carried it.
func (r *Repository) Stamp() uint64 { return r.stamp.Load() }

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
		list[slices.Index(list, old.pkg)] = p
	} else {
		if old != nil {
			// Same NVRA filed under another name ("a-1" 2-3 and "a" 1-2-3).
			r.unlink(old.pkg)
		}
		r.byName[p.Name] = append(r.byName[p.Name], p)
	}
	r.byNVRA[nvra] = e
	r.stamp.Store(states.Add(1))
}

// position finds where the package with the given NVRA stands, or would
// stand, in sorted. Callers hold the lock.
func (r *Repository) position(nvra string) int {
	i, _ := slices.BinarySearchFunc(r.sorted, nvra, func(p *Package, nvra string) int {
		return strings.Compare(p.NVRA(), nvra)
	})
	return i
}

// unlink takes a package out of its name's list. Callers hold the lock.
func (r *Repository) unlink(p *Package) {
	name := p.Name
	list := r.byName[name]
	i := slices.Index(list, p)
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
	r.unlink(e.pkg)
	i := r.position(nvra)
	r.sorted = slices.Delete(slices.Clone(r.sorted), i, i+1)
	r.stamp.Store(states.Add(1))
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
// a distribution server sends for it — and that format's CRC-32 (IEEE), or
// nil. Both are made on the first call and the same bytes are returned from
// then on; callers must not modify them.
func (r *Repository) Body(nvra string) (body []byte, sum uint32) {
	r.mu.RLock()
	e := r.byNVRA[nvra]
	r.mu.RUnlock()
	if e == nil {
		return nil, 0
	}
	e.once.Do(func() {
		e.body = e.pkg.Bytes()
		e.sum = crc32.ChecksumIEEE(e.body)
	})
	return e.body, e.sum
}

// Newest returns the most recent version of the named package for the given
// architecture; on a tie, the first in NVRA order, the tie rule of the
// kickstart's resolution. Packages built for ArchNoarch match any architecture,
// and a request for ArchAthlon falls back to i386 packages the way RPM's
// architecture-compatibility ladder does. It returns nil if the repository
// has no matching package.
func (r *Repository) Newest(name, arch string) *Package {
	r.mu.RLock()
	defer r.mu.RUnlock()
	var best *Package
	for _, q := range r.byName[name] {
		if !ArchCompatible(arch, q.Arch) {
			continue
		}
		if best == nil || Compare(q.Version, best.Version) > 0 ||
			Compare(q.Version, best.Version) == 0 && q.NVRA() < best.NVRA() {
			best = q
		}
	}
	return best
}

// Versions returns every package stored under the given name, newest first.
func (r *Repository) Versions(name string) []*Package {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := slices.Clone(r.byName[name])
	sort.Slice(out, func(i, j int) bool { return Compare(out[i].Version, out[j].Version) > 0 })
	return out
}

// ReadNamed calls f with the index by name (every package stored under a
// name, unsorted) under one hold of the read lock, so a caller looking up
// many names pays for the lock once; stamp is the state f read. f must not
// write the index or keep it.
func (r *Repository) ReadNamed(f func(byName map[string][]*Package)) (stamp uint64) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	f(r.byName)
	return r.stamp.Load()
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

// ArchCompatible reports whether a package built for pkgArch can install on
// a node of arch nodeArch: exact matches, noarch and source packages
// everywhere, and i386 packages on athlon nodes.
func ArchCompatible(nodeArch, pkgArch string) bool {
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
