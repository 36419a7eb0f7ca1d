package core

import (
	"net/http/httptest"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"

	"rocks/internal/clusterdb"
	"rocks/internal/dist"
	"rocks/internal/installer"
	"rocks/internal/kickstart"
	"rocks/internal/rpm"
)

// kickstartOf serves the CGI's kickstart for the node at ip and parses it.
func kickstartOf(t *testing.T, c *Cluster, ip string) *kickstart.Profile {
	rec := httptest.NewRecorder()
	req := httptest.NewRequest("GET", "/install/kickstart.cgi", nil)
	req.Header.Set(installer.ClientIPHeader, ip)
	c.Handler().ServeHTTP(rec, req)
	if rec.Code != 200 {
		t.Fatalf("kickstart.cgi for %s: %d %s", ip, rec.Code, rec.Body)
	}
	profile, err := kickstart.ParseProfile(rec.Body.String())
	if err != nil {
		t.Fatal(err)
	}
	return profile
}

// registerCompute gives the CGI a compute row to answer for.
func registerCompute(t *testing.T, c *Cluster, ip string) {
	if _, err := clusterdb.InsertNode(c.DB, clusterdb.Node{MAC: "00:50:8b:ee:00:01", Name: "compute-0-0",
		Membership: clusterdb.MembershipCompute, IP: ip, Arch: "i386"}); err != nil {
		t.Fatal(err)
	}
}

// bumped is p under its release with suffix appended: a newer version of the
// same payload.
func bumped(p *rpm.Package, suffix string) *rpm.Package {
	q := *p
	q.Version.Release += suffix
	return &q
}

// TestKickstartNeverCarriesAStaleSection: the %manifest section a class
// keeps is served only while the tree is in the state it was made from. A
// kickstart after an Add of a newer version, after a Remove, and after the
// tree is rebound to a rebuilt one carries the resolution of the tree as it
// is then, byte for byte, and each differs from the one before.
func TestKickstartNeverCarriesAStaleSection(t *testing.T) {
	c := newCluster(t)
	const ip = "10.255.255.200"
	registerCompute(t, c, ip)
	first := kickstartOf(t, c, ip)
	names := first.Packages
	current := func() string {
		b, _ := c.distSrv.AppendResolution(nil, "i386", names)
		return string(b[1:])
	}
	repo := c.Dist.Repo
	steps := []struct {
		what   string
		change func()
	}{
		{"an Add of a newer version", func() { repo.Add(bumped(repo.Newest(names[0], "i386"), ".1")) }},
		{"a Remove", func() { repo.Remove(repo.Newest(names[1], "i386").NVRA()) }},
		{"a rebuilt tree", func() {
			updates := rpm.NewRepository("updates")
			updates.Add(bumped(repo.Newest(names[2], "i386"), ".1"))
			*c.Dist = *dist.Build(c.Dist.Name, c.Dist.Framework,
				dist.Source{Name: "current", Repo: repo}, dist.Source{Name: "updates", Repo: updates})
		}},
	}
	seen := first.Manifest
	if seen != current() {
		t.Fatal("the first kickstart does not carry the tree's resolution")
	}
	for _, step := range steps {
		kickstartOf(t, c, ip) // the class's section is filed and a hit
		step.change()
		got := kickstartOf(t, c, ip).Manifest
		if got == seen {
			t.Fatalf("after %s the kickstart carries the section from before it", step.what)
		}
		if want := current(); got != want {
			t.Fatalf("after %s the kickstart carries\n%s\nwant the tree's resolution\n%s", step.what, got, want)
		}
		seen = got
	}
}

// TestConcurrentKickstartsCarryNoOlderState: while one goroutine adds newer
// and newer versions of a package the profile names, kickstarts served at
// the same time never carry a version older than the newest one whose Add
// had returned when the request began.
func TestConcurrentKickstartsCarryNoOlderState(t *testing.T) {
	c := newCluster(t)
	const ip = "10.255.255.200"
	registerCompute(t, c, ip)
	names := kickstartOf(t, c, ip).Packages
	repo := c.Dist.Repo
	base := repo.Newest(names[0], "i386")
	var added atomic.Int64 // the newest version whose Add has returned
	const versions, readers = 200, 4
	version := map[string]int64{base.NVRA(): 0}
	for v := int64(1); v <= versions; v++ {
		version[bumped(base, "."+strconv.FormatInt(v, 10)).NVRA()] = v
	}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for v := int64(1); v <= versions; v++ {
			repo.Add(bumped(base, "."+strconv.FormatInt(v, 10)))
			added.Store(v)
		}
	}()
	for range readers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for added.Load() < versions {
				before := added.Load()
				rec := httptest.NewRecorder()
				req := httptest.NewRequest("GET", "/install/kickstart.cgi", nil)
				req.Header.Set(installer.ClientIPHeader, ip)
				c.Handler().ServeHTTP(rec, req)
				profile, err := kickstart.ParseProfile(rec.Body.String())
				if err != nil {
					t.Error(err)
					return
				}
				entries, err := dist.ReadResolution(profile.Manifest, profile.Packages)
				if err != nil {
					t.Error(err)
					return
				}
				if served, ok := version[entries[0].NVRA]; !ok || served < before {
					t.Errorf("a kickstart begun after version %d was added carries %s", before, entries[0].NVRA)
					return
				}
			}
		}()
	}
	wg.Wait()
}
