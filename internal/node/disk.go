// Package node models a cluster machine: a hardware profile, a disk with
// mountable partitions, an installed-package database, a process table,
// and the power/boot state machine that management tools drive. The paper
// treats a compute node's base OS as "soft state that can be changed and/or
// updated rapidly" (§1); this package makes that state explicit and
// reinstallable.
package node

import (
	"cmp"
	"fmt"
	"slices"
	"sort"
	"strings"
	"sync"

	"rocks/internal/rpm"
)

// File is one file the node wrote to a partition.
type File struct {
	Data []byte
	Mode uint32
}

// Partition is a formatted region of the disk holding a file tree. Paths
// are absolute (relative to the running system's root, not the partition).
type Partition struct {
	Mount     string // mountpoint, e.g. "/" or "/state/partition1"
	Formatted bool
	// Generation counts how many times the partition has been formatted;
	// tests use it to prove non-root partitions survive reinstalls (§6.3).
	Generation int
	files      map[string]File           // written by the node, in arrays the disk owns
	unpacked   map[string]*rpm.FileEntry // a verified package's own entries
}

func newPartition(mount string) *Partition {
	return &Partition{Mount: mount, files: make(map[string]File), unpacked: make(map[string]*rpm.FileEntry)}
}

// lookup finds a file, the node's own or unpacked. Callers hold the disk's
// lock.
func (p *Partition) lookup(path string) (File, bool) {
	f, ok := p.files[path]
	if u := p.unpacked[path]; u != nil {
		f, ok = File{Data: u.Data, Mode: cmp.Or(u.Mode, 0o644)}, true
	}
	return f, ok
}

// Disk is a node's system disk: a set of partitions keyed by mountpoint.
// File operations route to the partition with the longest matching
// mountpoint prefix, like a VFS. Disk is safe for concurrent use.
//
// A file's bytes leave the disk only as a copy (ReadFile), and every access
// holds mu. What WriteFile and AppendFile are handed is copied into arrays
// the disk owns, which is what lets WriteFile overwrite a file in the array
// it already occupies. What Unpack is handed is kept as it is, by reference:
// a verified package's file entries, which other nodes and relay stores hold
// too, so the disk never writes into them; a write to such a path takes it
// over with bytes of the disk's own.
type Disk struct {
	mu    sync.RWMutex
	Parts map[string]*Partition
	// mounted is the formatted partitions, longest mountpoint first: the
	// order partitionFor tries them in.
	mounted []*Partition
}

// NewDisk returns an empty, unpartitioned disk.
func NewDisk() *Disk {
	return &Disk{Parts: make(map[string]*Partition)}
}

// EnsurePartition creates the partition if it does not exist yet and
// returns it. Existing partitions — and their contents — are left alone;
// this is the "--noformat" path that preserves /state/partition1 across
// reinstalls.
func (d *Disk) EnsurePartition(mount string) *Partition {
	d.mu.Lock()
	defer d.mu.Unlock()
	if p, ok := d.Parts[mount]; ok {
		return p
	}
	p := newPartition(mount)
	d.Parts[mount] = p
	return p
}

// Format (re)creates the partition's filesystem, destroying its contents.
// The file tables are emptied, not replaced: a reinstall fills them again.
func (d *Disk) Format(mount string) *Partition {
	d.mu.Lock()
	defer d.mu.Unlock()
	p, ok := d.Parts[mount]
	if !ok {
		p = newPartition(mount)
		d.Parts[mount] = p
	}
	clear(p.files)
	clear(p.unpacked)
	if !p.Formatted {
		at := sort.Search(len(d.mounted), func(i int) bool { return len(d.mounted[i].Mount) < len(mount) })
		d.mounted = slices.Insert(d.mounted, at, p)
	}
	p.Formatted = true
	p.Generation++
	return p
}

// RemoveAll wipes the whole disk (the frontend's "clearpart --all").
func (d *Disk) RemoveAll() {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.Parts = make(map[string]*Partition)
	d.mounted = nil
}

// partitionFor returns the formatted partition whose mountpoint is the
// longest prefix of path. Callers hold d.mu.
func (d *Disk) partitionFor(path string) (*Partition, error) {
	if !strings.HasPrefix(path, "/") {
		return nil, fmt.Errorf("node: path %q is not absolute", path)
	}
	for _, p := range d.mounted {
		// path is the mountpoint itself or lies below it:
		// /state/partition10 is not below /state/partition1.
		rest, ok := strings.CutPrefix(path, p.Mount)
		if ok && (rest == "" || rest[0] == '/' || strings.HasSuffix(p.Mount, "/")) {
			return p, nil
		}
	}
	return nil, fmt.Errorf("node: no formatted partition holds %q", path)
}

// WriteFile stores a file on the partition owning the path, over the bytes of
// the file it replaces when they fit and are the disk's own: a steady report
// pass allocates nothing.
func (d *Disk) WriteFile(path string, data []byte, mode uint32) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	p, err := d.partitionFor(path)
	if err != nil {
		return err
	}
	delete(p.unpacked, path)
	old := p.files[path].Data
	p.files[path] = File{Data: append(old[:0], data...), Mode: cmp.Or(mode, 0o644)}
	return nil
}

// Unpack stores a verified package's files, each on the partition owning its
// path, under one hold of the disk. It keeps a reference to each entry rather
// than a copy (see Disk). A path no formatted partition holds stops it there,
// with the files before it stored.
func (d *Disk) Unpack(files []rpm.FileEntry) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	for i := range files {
		f := &files[i]
		p, err := d.partitionFor(f.Path)
		if err != nil {
			return err
		}
		delete(p.files, f.Path)
		p.unpacked[f.Path] = f
	}
	return nil
}

// AppendFile appends to an existing file, creating it if needed (the shape
// of most %post "echo >> /etc/..." edits).
func (d *Disk) AppendFile(path string, data []byte) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	p, err := d.partitionFor(path)
	if err != nil {
		return err
	}
	f := p.files[path]
	if u, ok := p.unpacked[path]; ok {
		// The package's bytes become the disk's own before any are appended.
		f = File{Data: slices.Clone(u.Data), Mode: u.Mode}
		delete(p.unpacked, path)
	}
	f.Data, f.Mode = append(f.Data, data...), cmp.Or(f.Mode, 0o644)
	p.files[path] = f
	return nil
}

// ReadFile retrieves a file's contents.
func (d *Disk) ReadFile(path string) ([]byte, error) {
	d.mu.RLock()
	defer d.mu.RUnlock()
	p, err := d.partitionFor(path)
	if err != nil {
		return nil, err
	}
	f, ok := p.lookup(path)
	if !ok {
		return nil, fmt.Errorf("node: %s: no such file", path)
	}
	return append([]byte(nil), f.Data...), nil
}

// Stat reports whether a file exists and its mode.
func (d *Disk) Stat(path string) (uint32, bool) {
	d.mu.RLock()
	defer d.mu.RUnlock()
	p, err := d.partitionFor(path)
	if err != nil {
		return 0, false
	}
	f, ok := p.lookup(path)
	return f.Mode, ok
}

// List returns the sorted paths under a prefix across all partitions.
func (d *Disk) List(prefix string) []string {
	d.mu.RLock()
	defer d.mu.RUnlock()
	var out []string
	for _, p := range d.mounted {
		for path := range p.files {
			if strings.HasPrefix(path, prefix) {
				out = append(out, path)
			}
		}
		for path := range p.unpacked {
			if strings.HasPrefix(path, prefix) {
				out = append(out, path)
			}
		}
	}
	sort.Strings(out)
	return out
}

// FileCount returns the number of files on the partition at mount.
func (d *Disk) FileCount(mount string) int {
	d.mu.RLock()
	defer d.mu.RUnlock()
	if p, ok := d.Parts[mount]; ok {
		return len(p.files) + len(p.unpacked)
	}
	return 0
}

// Partition returns the partition at mount, if present.
func (d *Disk) Partition(mount string) (*Partition, bool) {
	d.mu.RLock()
	defer d.mu.RUnlock()
	p, ok := d.Parts[mount]
	return p, ok
}

// Bootable reports whether the disk holds an installed OS: a formatted
// root with a kernel. A factory-fresh or wiped node is not bootable and
// falls into installation on power-on.
func (d *Disk) Bootable() bool {
	d.mu.RLock()
	defer d.mu.RUnlock()
	p, ok := d.Parts["/"]
	if !ok || !p.Formatted {
		return false
	}
	_, hasKernel := p.lookup("/boot/vmlinuz")
	return hasKernel
}
