// Package dist implements rocks-dist (§6.2): the tool that gathers software
// from multiple sources — a Red Hat mirror, Red Hat's updates, third-party
// contrib packages, and locally built RPMs — and constructs a single new
// distribution in which only the newest version of each package survives.
//
// Distributions compose hierarchically (Figure 6): a child distribution
// replicates its parent (over HTTP in the paper, by reference here — the
// analogue of the symlink tree, §6.2.3) and layers local packages and an
// edited XML configuration framework on top. Because inherited packages are
// shared rather than copied, a derived distribution costs only its local
// additions (the paper: ~25 MB, built in under a minute).
//
// The package also holds the distribution protocol both ways (http.go,
// fetch.go): the read-only tree every frontend and relay serves — manifest,
// listing, one GET per package file, the paper's wget-able layout — and, on
// the same tree, the bundle verb an installer uses instead of the GETs: one
// request naming every package its profile resolved to, one stream of
// checksummed members back. Fetcher is the one client of all of it, and
// verify the one place a fetched body is checked against the manifest,
// whichever verb carried it.
package dist

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"rocks/internal/kickstart"
	"rocks/internal/rpm"
)

// Source is one input to a distribution build, in precedence order of the
// paper's Figure 5: base mirror, updates, contrib, local RPMS.
type Source struct {
	Name string
	Repo *rpm.Repository
}

// Distribution is a built, installable software set: the resolved package
// repository plus the XML configuration framework that generates kickstart
// files against it.
type Distribution struct {
	Name      string
	Parent    string // name of the parent distribution ("" for a root build)
	Repo      *rpm.Repository
	Framework *kickstart.Framework
	Report    BuildReport
}

// BuildReport records what a build did — the numbers an administrator reads
// to confirm an update pass picked up what it should have.
type BuildReport struct {
	// Considered counts every package version seen across all sources.
	Considered int
	// Included counts packages placed in the distribution (one per
	// name/arch).
	Included int
	// Superseded lists NVRAs dropped because a newer version existed in
	// some source ("the most recent software" rule, §6.2.1).
	Superseded []string
	// Linked counts packages inherited from the parent distribution by
	// reference (the symlink tree); Copied counts packages physically new
	// in this distribution, with CopiedBytes their total size.
	Linked      int
	Copied      int
	CopiedBytes int64
	// Duration is how long the build took (the paper: under a minute).
	Duration time.Duration
}

// Summary renders the one-screen report rocks-dist prints.
func (r BuildReport) Summary() string {
	var b strings.Builder
	fmt.Fprintf(&b, "rocks-dist: %d package versions considered, %d included, %d superseded\n",
		r.Considered, r.Included, len(r.Superseded))
	fmt.Fprintf(&b, "rocks-dist: %d linked from parent, %d copied (%d bytes), built in %v\n",
		r.Linked, r.Copied, r.CopiedBytes, r.Duration)
	return b.String()
}

// Build runs the rocks-dist pipeline of Figure 5: merge the sources, keep
// only the newest version of every (name, arch) pair, and attach the given
// configuration framework. Later sources win version ties (a rebuilt local
// package with the same NVRA replaces the mirrored one).
func Build(name string, framework *kickstart.Framework, sources ...Source) *Distribution {
	start := time.Now()
	d := &Distribution{
		Name:      name,
		Repo:      rpm.NewRepository(name),
		Framework: framework,
	}
	type key struct{ name, arch string }
	best := make(map[key]*rpm.Package)
	var order []key // deterministic report ordering
	for _, src := range sources {
		for _, p := range src.Repo.All() {
			d.Report.Considered++
			k := key{p.Name, p.Arch}
			cur, ok := best[k]
			if !ok {
				best[k] = p
				order = append(order, k)
				continue
			}
			if c := rpm.Compare(p.Version, cur.Version); c > 0 || (c == 0 && src.Name != cur.Source) {
				// Newer version, or same version from a later source.
				if c > 0 {
					d.Report.Superseded = append(d.Report.Superseded, cur.NVRA())
				}
				best[k] = p
			} else if c < 0 {
				d.Report.Superseded = append(d.Report.Superseded, p.NVRA())
			}
		}
	}
	sort.Slice(order, func(i, j int) bool {
		if order[i].name != order[j].name {
			return order[i].name < order[j].name
		}
		return order[i].arch < order[j].arch
	})
	for _, k := range order {
		d.Repo.Add(best[k])
		d.Report.Included++
	}
	sort.Strings(d.Report.Superseded)
	d.Report.Duration = time.Since(start)
	return d
}

// BuildChild derives a new distribution from a parent (Figure 6's
// object-oriented model): the parent's packages are inherited by reference
// — the in-memory analogue of rocks-dist's symlink tree — and local sources
// are layered on top, newer versions superseding inherited ones. The
// framework defaults to a clone of the parent's so the child can edit nodes
// and edges without affecting the parent (§6.2.3).
func BuildChild(name string, parent *Distribution, framework *kickstart.Framework, locals ...Source) *Distribution {
	if framework == nil {
		framework = parent.Framework.Clone()
	}
	sources := append([]Source{{Name: parent.Name, Repo: parent.Repo}}, locals...)
	d := Build(name, framework, sources...)
	d.Parent = parent.Name
	// Recompute link/copy accounting: anything whose Source provenance is
	// outside this build's local sources was inherited.
	localNames := map[string]bool{}
	for _, l := range locals {
		localNames[l.Name] = true
	}
	for _, p := range d.Repo.All() {
		if localNames[p.Source] {
			d.Report.Copied++
			d.Report.CopiedBytes += p.Size
		} else {
			d.Report.Linked++
		}
	}
	return d
}

// ResolveProfile resolves a kickstart profile's package list against the
// distribution by the rule the kickstart CGI applies (resolve): the package
// a node of the profile's arch installs for each name, in order.
func (d *Distribution) ResolveProfile(p *kickstart.Profile) ([]*rpm.Package, error) {
	pkgs := make([]*rpm.Package, 0, len(p.Packages))
	if _, err := resolve(d.Repo, p.Arch, p.Packages, func(pkg *rpm.Package) { pkgs = append(pkgs, pkg) }); err != nil {
		return nil, fmt.Errorf("dist %q: %w", d.Name, err)
	}
	return pkgs, nil
}

// Lineage walks Parent names up from this distribution. Only the immediate
// parent name is stored; the full chain is reconstructed by the caller that
// holds the distributions. Provided for display.
func (d *Distribution) Lineage() string {
	if d.Parent == "" {
		return d.Name
	}
	return d.Parent + " -> " + d.Name
}
