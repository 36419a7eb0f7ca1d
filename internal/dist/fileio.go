package dist

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"rocks/internal/rpm"
)

// On-disk distribution trees. rocks-dist materializes a distribution as a
// directory shaped like a Red Hat tree (RedHat/RPMS/*.rpm); this file moves
// repositories between memory and such trees so the rocks-dist CLI can
// compose distributions across process boundaries. The MANIFEST written
// next to the tree carries each package's SHA-256 payload digest, so a
// reread (or an explicit VerifyTree pass) can prove the tree still holds
// exactly the bytes the build produced — a half-written materialize, a
// corrupted disk, or a stale leftover file fails loudly by name instead of
// poisoning downstream installs.

// WriteTree writes every package of a repository under dir/RedHat/RPMS/,
// plus a MANIFEST listing NVRA, size, digest, and provenance. The RPMS
// directory is synchronized to exactly the repository contents: stale .rpm
// files from a previous materialize (superseded packages) are deleted, so
// re-materializing into an existing tree can never resurrect them. It
// returns the number of package files written.
func WriteTree(repo *rpm.Repository, dir string) (int, error) {
	rpms := filepath.Join(dir, "RedHat", "RPMS")
	if err := os.MkdirAll(rpms, 0o755); err != nil {
		return 0, fmt.Errorf("dist: %w", err)
	}
	written := make(map[string]bool)
	n := 0
	for _, p := range repo.Sorted() {
		f, err := os.Create(filepath.Join(rpms, p.Filename()))
		if err != nil {
			return n, fmt.Errorf("dist: %w", err)
		}
		if _, err := p.WriteTo(f); err != nil {
			f.Close()
			return n, fmt.Errorf("dist: writing %s: %w", p.Filename(), err)
		}
		if err := f.Close(); err != nil {
			return n, fmt.Errorf("dist: writing %s: %w", p.Filename(), err)
		}
		written[p.Filename()] = true
		n++
	}
	// Sync: anything in RedHat/RPMS/ this pass did not write is a leftover
	// from an earlier materialize of a different package set.
	entries, err := os.ReadDir(rpms)
	if err != nil {
		return n, fmt.Errorf("dist: %w", err)
	}
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".rpm") || written[e.Name()] {
			continue
		}
		if err := os.Remove(filepath.Join(rpms, e.Name())); err != nil {
			return n, fmt.Errorf("dist: removing stale %s: %w", e.Name(), err)
		}
	}
	if err := os.WriteFile(filepath.Join(dir, "MANIFEST"),
		[]byte(FormatManifest(Manifest(repo))), 0o644); err != nil {
		return n, fmt.Errorf("dist: writing MANIFEST: %w", err)
	}
	return n, nil
}

// Materialize writes the full distribution tree: packages under
// RedHat/RPMS/ plus the XML configuration infrastructure under profiles/ —
// the §6.2.3 build directory users edit to customize a distribution.
func Materialize(d *Distribution, dir string) (int, error) {
	n, err := WriteTree(d.Repo, dir)
	if err != nil {
		return n, err
	}
	if d.Framework != nil {
		if err := d.Framework.Export(filepath.Join(dir, "profiles")); err != nil {
			return n, err
		}
	}
	return n, nil
}

// readManifestFile loads dir/MANIFEST into an NVRA-keyed map. A missing
// MANIFEST returns nil: a hand-assembled tree, whose bodies are still each
// checked against their own digest as they decode.
func readManifestFile(dir string) (map[string]ManifestEntry, error) {
	data, err := os.ReadFile(filepath.Join(dir, "MANIFEST"))
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("dist: reading MANIFEST in %s: %w", dir, err)
	}
	entries, err := ParseManifest(data)
	if err != nil {
		return nil, fmt.Errorf("dist: %s: %w", dir, err)
	}
	byNVRA := make(map[string]ManifestEntry, len(entries))
	for _, e := range entries {
		byNVRA[e.NVRA] = e
	}
	return byNVRA, nil
}

// readPackage decodes one file of a tree.
func readPackage(path string) (*rpm.Package, error) {
	body, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return rpm.Decode(body)
}

// ReadTree loads every .rpm under dir/RedHat/RPMS/ into a repository named
// after the source name. When the tree carries a MANIFEST (everything
// WriteTree produced does), the contents are checked against it: a package
// whose payload digest disagrees (a tampered or bit-rotted file), a .rpm
// the MANIFEST does not list (an orphan a broken sync left behind), or a
// listed package whose file is gone all fail loudly, naming the file —
// such a tree must never seed a repository.
func ReadTree(dir, name string) (*rpm.Repository, error) {
	rpms := filepath.Join(dir, "RedHat", "RPMS")
	entries, err := os.ReadDir(rpms)
	if err != nil {
		return nil, fmt.Errorf("dist: %s is not a distribution tree: %w", dir, err)
	}
	manifest, err := readManifestFile(dir)
	if err != nil {
		return nil, err
	}
	seen := make(map[string]bool)
	repo := rpm.NewRepository(name)
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".rpm") {
			continue
		}
		p, err := readPackage(filepath.Join(rpms, e.Name()))
		if err != nil {
			return nil, fmt.Errorf("dist: reading %s: %w", e.Name(), err)
		}
		if manifest != nil {
			m, listed := manifest[p.NVRA()]
			if !listed || p.Filename() != e.Name() {
				return nil, fmt.Errorf("dist: %s: %s is not in MANIFEST (orphaned file)", dir, e.Name())
			}
			if p.EnsureDigest() != m.Digest {
				return nil, fmt.Errorf("dist: %s: %s does not match its MANIFEST digest (tampered tree)", dir, e.Name())
			}
			seen[p.NVRA()] = true
		}
		p.Source = name
		repo.Add(p)
	}
	for nvra := range manifest {
		if !seen[nvra] {
			return nil, fmt.Errorf("dist: %s: MANIFEST lists %s but the file is missing", dir, nvra+".rpm")
		}
	}
	return repo, nil
}

// TreeVerify is the result of a VerifyTree pass: how many packages were
// checked and every file that failed, by failure class.
type TreeVerify struct {
	// Packages counts .rpm files examined; Verified counts those whose
	// payload digest matched the MANIFEST.
	Packages int `json:"packages"`
	Verified int `json:"verified"`
	// Tampered lists files whose content does not match the MANIFEST digest
	// (including files that no longer decode at all).
	Tampered []string `json:"tampered,omitempty"`
	// Orphaned lists .rpm files the MANIFEST does not account for.
	Orphaned []string `json:"orphaned,omitempty"`
	// Missing lists MANIFEST entries whose file is gone.
	Missing []string `json:"missing,omitempty"`
}

// Clean reports whether the tree passed verification.
func (v TreeVerify) Clean() bool {
	return len(v.Tampered) == 0 && len(v.Orphaned) == 0 && len(v.Missing) == 0
}

// Summary renders the one-line report `rocks-dist -verify` prints.
func (v TreeVerify) Summary() string {
	if v.Clean() {
		return fmt.Sprintf("rocks-dist: verified %d/%d packages against MANIFEST digests", v.Verified, v.Packages)
	}
	return fmt.Sprintf("rocks-dist: TREE CORRUPT: %d tampered %v, %d orphaned %v, %d missing %v",
		len(v.Tampered), v.Tampered, len(v.Orphaned), v.Orphaned, len(v.Missing), v.Missing)
}

// VerifyTree audits a materialized tree against its MANIFEST without
// building a repository, collecting every discrepancy instead of stopping
// at the first (ReadTree's job). It errors only when the directory is not
// a tree, carries no MANIFEST to verify against, or holds a file that is not
// in the package format at all (rpm.ErrFormat).
func VerifyTree(dir string) (TreeVerify, error) {
	var v TreeVerify
	rpms := filepath.Join(dir, "RedHat", "RPMS")
	entries, err := os.ReadDir(rpms)
	if err != nil {
		return v, fmt.Errorf("dist: %s is not a distribution tree: %w", dir, err)
	}
	manifest, err := readManifestFile(dir)
	if err != nil {
		return v, err
	}
	if manifest == nil {
		return v, fmt.Errorf("dist: %s has no MANIFEST to verify against", dir)
	}
	seen := make(map[string]bool)
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".rpm") {
			continue
		}
		v.Packages++
		p, err := readPackage(filepath.Join(rpms, e.Name()))
		if errors.Is(err, rpm.ErrFormat) {
			// Not damage: a tree of another format has nothing to audit.
			return v, fmt.Errorf("dist: reading %s: %w", e.Name(), err)
		}
		if err != nil {
			// Unreadable or undecodable bytes under a .rpm name: corrupt.
			// The MANIFEST entry this file materialized is present-but-bad,
			// not missing — mark it seen so it is reported exactly once.
			v.Tampered = append(v.Tampered, e.Name())
			seen[strings.TrimSuffix(e.Name(), ".rpm")] = true
			continue
		}
		m, listed := manifest[p.NVRA()]
		if !listed || p.Filename() != e.Name() {
			v.Orphaned = append(v.Orphaned, e.Name())
			continue
		}
		seen[p.NVRA()] = true
		if p.EnsureDigest() != m.Digest {
			v.Tampered = append(v.Tampered, e.Name())
			continue
		}
		v.Verified++
	}
	for nvra := range manifest {
		if !seen[nvra] {
			v.Missing = append(v.Missing, nvra+".rpm")
		}
	}
	sort.Strings(v.Tampered)
	sort.Strings(v.Orphaned)
	sort.Strings(v.Missing)
	return v, nil
}
