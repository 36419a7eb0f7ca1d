// rocks-dist builds and serves cluster distributions (§6.2). A distribution
// is gathered from multiple sources — on-disk trees, HTTP mirrors of a
// parent distribution, and the built-in synthetic Red Hat — with only the
// newest version of each package surviving (Figure 5). Trees compose
// hierarchically: a campus mirrors NPACI and adds local RPMs; departments
// mirror the campus (Figure 6).
//
//	rocks-dist synth -out ./mirror                 # materialize the stock mirror
//	rocks-dist build -out ./dist -src ./mirror,./updates,./local
//	rocks-dist build -out ./campus -mirror http://host:8080 -src ./campus-rpms
//	rocks-dist build -out ./campus -mirror http://host:8080 -delta   # re-fetch only changed digests
//	rocks-dist serve -dir ./dist -addr 127.0.0.1:8080 -verify
//	rocks-dist list  -dir ./dist -verify
//	rocks-dist verify -dir ./dist                  # audit the tree against its MANIFEST
package main

import (
	"context"
	"flag"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"strings"

	"rocks/internal/dist"
	"rocks/internal/kickstart"
	"rocks/internal/rpm"
)

func main() {
	if len(os.Args) < 2 {
		usage()
	}
	switch os.Args[1] {
	case "synth":
		cmdSynth(os.Args[2:])
	case "build":
		cmdBuild(os.Args[2:])
	case "serve":
		cmdServe(os.Args[2:])
	case "list":
		cmdList(os.Args[2:])
	case "verify":
		cmdVerify(os.Args[2:])
	default:
		usage()
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, "usage: rocks-dist {synth|build|serve|list|verify} [flags]")
	os.Exit(2)
}

func die(err error) {
	fmt.Fprintln(os.Stderr, "rocks-dist:", err)
	os.Exit(1)
}

func cmdSynth(args []string) {
	fs := flag.NewFlagSet("synth", flag.ExitOnError)
	out := fs.String("out", "mirror", "output directory")
	fs.Parse(args)
	repo := dist.SyntheticRedHat()
	n, err := dist.WriteTree(repo, *out)
	if err != nil {
		die(err)
	}
	fmt.Printf("wrote %d packages (%d bytes nominal) to %s\n", n, repo.TotalSize(), *out)
}

func cmdBuild(args []string) {
	fs := flag.NewFlagSet("build", flag.ExitOnError)
	out := fs.String("out", "dist", "output directory")
	name := fs.String("name", "rocks", "distribution name")
	srcs := fs.String("src", "", "comma-separated source trees, in precedence order")
	mirrors := fs.String("mirror", "", "comma-separated parent distribution URLs to replicate first")
	profiles := fs.String("profiles", "", "site profiles directory (nodes/*.xml, graphs/*.xml) layered over the defaults")
	retries := fs.Int("mirror-retries", 3, "fetch attempts per package before the replication pass fails")
	delta := fs.Bool("delta", false, "delta mirror: reuse packages already materialized in -out whose manifest digest is unchanged")
	fs.Parse(args)

	// Delta mode: the previous materialize of -out is the baseline; only
	// packages whose digest the parent's manifest says changed are fetched.
	var baseline *rpm.Repository
	if *delta {
		prev, err := dist.ReadTree(*out, "baseline")
		if err != nil {
			fmt.Fprintf(os.Stderr, "rocks-dist: no usable baseline in %s (%v); running a full mirror\n", *out, err)
		} else {
			baseline = prev
		}
	}
	var sources []dist.Source
	for _, u := range splitList(*mirrors) {
		repo, report, err := dist.Mirror(context.Background(), u, "mirror:"+u,
			dist.MirrorOptions{Fetcher: dist.Fetcher{Attempts: *retries}, Baseline: baseline})
		if err != nil {
			die(err)
		}
		sources = append(sources, dist.Source{Name: repo.Name(), Repo: repo})
		fmt.Printf("mirrored %d packages from %s\n%s\n", repo.Len(), u, report.Summary())
	}
	for _, d := range splitList(*srcs) {
		repo, err := dist.ReadTree(d, filepath.Base(d))
		if err != nil {
			die(err)
		}
		sources = append(sources, dist.Source{Name: repo.Name(), Repo: repo})
	}
	if len(sources) == 0 {
		die(fmt.Errorf("no sources: pass -src and/or -mirror"))
	}
	fw := kickstart.DefaultFramework()
	if *profiles != "" {
		site, err := kickstart.LoadFS(os.DirFS(*profiles))
		if err != nil {
			die(err)
		}
		for _, nf := range site.Nodes {
			fw.AddNode(nf)
		}
		fw.Graph.Merge(site.Graph)
	}
	d := dist.Build(*name, fw, sources...)
	fmt.Print(d.Report.Summary())
	n, err := dist.Materialize(d, *out)
	if err != nil {
		die(err)
	}
	fmt.Printf("wrote %d packages and the profiles build directory to %s\n", n, *out)
}

func cmdServe(args []string) {
	fs := flag.NewFlagSet("serve", flag.ExitOnError)
	dir := fs.String("dir", "dist", "distribution tree to serve")
	addr := fs.String("addr", "127.0.0.1:8080", "listen address")
	verify := fs.Bool("verify", false, "audit the tree against its MANIFEST digests before serving")
	fs.Parse(args)
	if *verify {
		verifyOrDie(*dir)
	}
	repo, err := dist.ReadTree(*dir, filepath.Base(*dir))
	if err != nil {
		die(err)
	}
	fw := kickstart.DefaultFramework()
	if site, err := kickstart.LoadFS(os.DirFS(filepath.Join(*dir, "profiles"))); err == nil && len(site.Nodes) > 0 {
		fw = site
	}
	d := dist.Build(filepath.Base(*dir), fw,
		dist.Source{Name: repo.Name(), Repo: repo})
	fmt.Printf("serving %d packages from %s on http://%s\n", d.Repo.Len(), *dir, *addr)
	if err := http.ListenAndServe(*addr, dist.NewServer(d)); err != nil {
		die(err)
	}
}

func cmdList(args []string) {
	fs := flag.NewFlagSet("list", flag.ExitOnError)
	dir := fs.String("dir", "dist", "distribution tree")
	verify := fs.Bool("verify", false, "audit the tree against its MANIFEST digests")
	fs.Parse(args)
	if *verify {
		verifyOrDie(*dir)
	}
	repo, err := dist.ReadTree(*dir, filepath.Base(*dir))
	if err != nil {
		die(err)
	}
	for _, p := range repo.All() {
		fmt.Printf("%-40s %10d  %s\n", p.NVRA(), p.Size, p.Summary)
	}
	fmt.Printf("%d packages, %d bytes nominal\n", repo.Len(), repo.TotalSize())
}

func cmdVerify(args []string) {
	fs := flag.NewFlagSet("verify", flag.ExitOnError)
	dir := fs.String("dir", "dist", "distribution tree")
	fs.Parse(args)
	verifyOrDie(*dir)
}

// verifyOrDie audits a tree against its MANIFEST and exits non-zero on any
// tampered, orphaned, or missing file — a corrupt tree must never be
// served or composed into a build.
func verifyOrDie(dir string) {
	v, err := dist.VerifyTree(dir)
	if err != nil {
		die(err)
	}
	fmt.Println(v.Summary())
	if !v.Clean() {
		os.Exit(1)
	}
}

func splitList(s string) []string {
	var out []string
	for _, part := range strings.Split(s, ",") {
		if part = strings.TrimSpace(part); part != "" {
			out = append(out, part)
		}
	}
	return out
}
