// Package node models a cluster machine: a hardware profile, a disk with
// mountable partitions, an installed-package database, a process table,
// and the power/boot state machine that management tools drive. The paper
// treats a compute node's base OS as "soft state that can be changed and/or
// updated rapidly" (§1); this package makes that state explicit and
// reinstallable.
package node

import (
	"fmt"
	"sort"
	"strings"
	"sync"
)

// File is one stored file on a partition.
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
	files      map[string]File
}

// Disk is a node's system disk: a set of partitions keyed by mountpoint.
// File operations route to the partition with the longest matching
// mountpoint prefix, like a VFS. Disk is safe for concurrent use.
//
// The disk owns its files' bytes: they leave it only as a copy (ReadFile),
// what it is handed is copied in, and every access holds mu. That is what
// lets WriteFile overwrite a file in the array it already occupies.
type Disk struct {
	mu    sync.RWMutex
	Parts map[string]*Partition
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
	p := &Partition{Mount: mount, files: make(map[string]File)}
	d.Parts[mount] = p
	return p
}

// Format (re)creates the partition's filesystem, destroying its contents.
func (d *Disk) Format(mount string) *Partition {
	d.mu.Lock()
	defer d.mu.Unlock()
	p, ok := d.Parts[mount]
	if !ok {
		p = &Partition{Mount: mount}
		d.Parts[mount] = p
	}
	p.files = make(map[string]File)
	p.Formatted = true
	p.Generation++
	return p
}

// RemoveAll wipes the whole disk (the frontend's "clearpart --all").
func (d *Disk) RemoveAll() {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.Parts = make(map[string]*Partition)
}

// partitionFor returns the partition whose mountpoint is the longest
// prefix of path. Callers hold d.mu.
func (d *Disk) partitionFor(path string) (*Partition, error) {
	best := ""
	var found *Partition
	for m, p := range d.Parts {
		if !p.Formatted {
			continue
		}
		prefix := m
		if prefix != "/" && !strings.HasSuffix(prefix, "/") {
			prefix += "/"
		}
		if (path == m || strings.HasPrefix(path, prefix)) && len(m) > len(best) {
			best = m
			found = p
		}
	}
	if found == nil {
		return nil, fmt.Errorf("node: no formatted partition holds %q", path)
	}
	return found, nil
}

// WriteFile stores a file on the partition owning the path, over the bytes of
// the file it replaces when they fit: a steady report pass allocates nothing.
func (d *Disk) WriteFile(path string, data []byte, mode uint32) error {
	if !strings.HasPrefix(path, "/") {
		return fmt.Errorf("node: path %q is not absolute", path)
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	p, err := d.partitionFor(path)
	if err != nil {
		return err
	}
	if mode == 0 {
		mode = 0o644
	}
	p.files[path] = File{Data: append(p.files[path].Data[:0], data...), Mode: mode}
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
	f.Data = append(f.Data, data...)
	if f.Mode == 0 {
		f.Mode = 0o644
	}
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
	f, ok := p.files[path]
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
	f, ok := p.files[path]
	return f.Mode, ok
}

// List returns the sorted paths under a prefix across all partitions.
func (d *Disk) List(prefix string) []string {
	d.mu.RLock()
	defer d.mu.RUnlock()
	var out []string
	for _, p := range d.Parts {
		if !p.Formatted {
			continue
		}
		for path := range p.files {
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
		return len(p.files)
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
	_, hasKernel := p.files["/boot/vmlinuz"]
	return hasKernel
}
