package rpm

import (
	"fmt"
	"slices"
	"sort"
	"strings"
	"sync"
)

// Database records the packages installed on one node — the state `rpm -q`
// inspects. The paper's pitfall questions ("What version of software X do I
// have on node Y?", §3.2) are answered by querying this database; the Rocks
// answer is that reinstallation makes the database identical on every node.
type Database struct {
	mu   sync.RWMutex
	recs []*Metadata // in name order; one version of a name installed at a time
}

// NewDatabase returns an empty installed-package database.
func NewDatabase() *Database { return &Database{} }

// Successor returns an empty database with room for what d holds, which a
// reinstall installs again; d is left as it is for whoever still holds it.
func (d *Database) Successor() *Database { return &Database{recs: make([]*Metadata, 0, d.Len())} }

// find is where the record of name stands or would; callers hold the lock.
func (d *Database) find(name string) (int, bool) {
	return slices.BinarySearchFunc(d.recs, name, func(m *Metadata, name string) int {
		return strings.Compare(m.Name, name)
	})
}

// Install records a package as installed, replacing any prior version of
// the same name (an upgrade). It keeps m, not a copy: a verified package's
// Metadata, which nothing writes and every node running it shares (Held).
func (d *Database) Install(m *Metadata) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if i, ok := d.find(m.Name); ok {
		d.recs[i] = m
	} else {
		d.recs = slices.Insert(d.recs, i, m)
	}
}

// Erase removes a package record; it reports whether the package was
// installed.
func (d *Database) Erase(name string) bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	i, ok := d.find(name)
	if ok {
		d.recs = slices.Delete(d.recs, i, i+1)
	}
	return ok
}

// Query returns the installed metadata for a package name, like `rpm -q`.
func (d *Database) Query(name string) (Metadata, bool) {
	d.mu.RLock()
	defer d.mu.RUnlock()
	if i, ok := d.find(name); ok {
		return *d.recs[i], true
	}
	return Metadata{}, false
}

// List returns every installed package in name order.
func (d *Database) List() []Metadata {
	d.mu.RLock()
	defer d.mu.RUnlock()
	out := make([]Metadata, len(d.recs))
	for i, m := range d.recs {
		out[i] = *m
	}
	return out
}

// Len reports the number of installed packages.
func (d *Database) Len() int {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return len(d.recs)
}

// Manifest renders one NVRA per line in name order — the canonical "software
// state" of a node. Two nodes are consistent exactly when their manifests
// are byte-identical; the consistency tests in the integration suite compare
// manifests after concurrent reinstallations.
func (d *Database) Manifest() string {
	var b strings.Builder
	for _, m := range d.List() {
		fmt.Fprintln(&b, m.NVRA())
	}
	return b.String()
}

// Diff reports the package-level differences between two databases: packages
// only in d (removed), only in other (added), and present in both with
// different versions (changed, rendered "name old -> new"). All three slices
// are sorted. A cluster where every Diff against the frontend's reference
// database is empty is "consistent" in the paper's sense.
func (d *Database) Diff(other *Database) (removed, added, changed []string) {
	mine := d.List()
	theirs := other.List()
	im := make(map[string]Metadata, len(mine))
	for _, m := range mine {
		im[m.Name] = m
	}
	io := make(map[string]Metadata, len(theirs))
	for _, m := range theirs {
		io[m.Name] = m
	}
	for _, m := range mine {
		o, ok := io[m.Name]
		switch {
		case !ok:
			removed = append(removed, m.NVRA())
		case Compare(m.Version, o.Version) != 0 || m.Arch != o.Arch:
			changed = append(changed, fmt.Sprintf("%s %s -> %s", m.Name, m.Version, o.Version))
		}
	}
	for _, m := range theirs {
		if _, ok := im[m.Name]; !ok {
			added = append(added, m.NVRA())
		}
	}
	sort.Strings(removed)
	sort.Strings(added)
	sort.Strings(changed)
	return removed, added, changed
}
