package rpm

import (
	"strings"
	"testing"
)

func TestDatabaseInstallQuery(t *testing.T) {
	db := NewDatabase()
	db.Install(&Metadata{Name: "ssh", Version: v("2.9p2", "12"), Arch: ArchI386})
	m, ok := db.Query("ssh")
	if !ok || m.Version.Version != "2.9p2" {
		t.Fatalf("Query = %+v, %v", m, ok)
	}
	if _, ok := db.Query("telnetd"); ok {
		t.Error("Query found a package that was never installed")
	}
}

func TestDatabaseUpgradeReplaces(t *testing.T) {
	db := NewDatabase()
	db.Install(&Metadata{Name: "glibc", Version: v("2.2.4", "13"), Arch: ArchI386})
	db.Install(&Metadata{Name: "glibc", Version: v("2.2.4", "24"), Arch: ArchI386})
	if db.Len() != 1 {
		t.Fatalf("Len = %d after upgrade, want 1", db.Len())
	}
	m, _ := db.Query("glibc")
	if m.Version.Release != "24" {
		t.Errorf("upgrade did not replace: %v", m.Version)
	}
}

func TestDatabaseErase(t *testing.T) {
	db := NewDatabase()
	db.Install(&Metadata{Name: "a", Version: v("1", "1")})
	if !db.Erase("a") || db.Erase("a") {
		t.Error("Erase semantics wrong")
	}
	if db.Len() != 0 {
		t.Error("database not empty after erase")
	}
}

// TestDatabaseEraseKeepsTheRest: erasing records from the front, the middle
// and the end of the slab leaves every other record where Query finds it.
func TestDatabaseEraseKeepsTheRest(t *testing.T) {
	db := NewDatabase().Successor()
	names := []string{"a", "b", "c", "d", "e", "f"}
	for i, n := range names {
		db.Install(&Metadata{Name: n, Version: v("1", strings.Repeat("1", i+1))})
	}
	for _, gone := range []string{"a", "d", "f"} {
		if !db.Erase(gone) {
			t.Fatalf("Erase(%q) found nothing", gone)
		}
	}
	if got := db.Manifest(); got != "b-1-11.\nc-1-111.\ne-1-11111.\n" {
		t.Errorf("Manifest after erasing a, d and f = %q", got)
	}
	for i, n := range names {
		m, ok := db.Query(n)
		if erased := n == "a" || n == "d" || n == "f"; ok == erased || ok && m.Version.Release != strings.Repeat("1", i+1) {
			t.Errorf("Query(%q) = %+v, %v", n, m, ok)
		}
	}
	db.Install(&Metadata{Name: "a", Version: v("2", "1")})
	if m, ok := db.Query("a"); !ok || m.Version.Version != "2" || db.Len() != 4 {
		t.Errorf("reinstalling an erased name: Query = %+v, %v; Len = %d", m, ok, db.Len())
	}
}

func TestDatabaseManifestSortedAndStable(t *testing.T) {
	db := NewDatabase()
	db.Install(&Metadata{Name: "zsh", Version: v("3.0.8", "8"), Arch: ArchI386})
	db.Install(&Metadata{Name: "bash", Version: v("2.05", "8"), Arch: ArchI386})
	m := db.Manifest()
	want := "bash-2.05-8.i386\nzsh-3.0.8-8.i386\n"
	if m != want {
		t.Errorf("Manifest = %q, want %q", m, want)
	}
	if m != db.Manifest() {
		t.Error("Manifest not stable across calls")
	}
}

func TestDatabaseDiff(t *testing.T) {
	a := NewDatabase()
	b := NewDatabase()
	a.Install(&Metadata{Name: "only-a", Version: v("1", "1"), Arch: ArchI386})
	a.Install(&Metadata{Name: "shared", Version: v("1.0", "1"), Arch: ArchI386})
	b.Install(&Metadata{Name: "shared", Version: v("1.0", "2"), Arch: ArchI386})
	b.Install(&Metadata{Name: "only-b", Version: v("1", "1"), Arch: ArchI386})

	removed, added, changed := a.Diff(b)
	if len(removed) != 1 || removed[0] != "only-a-1-1.i386" {
		t.Errorf("removed = %v", removed)
	}
	if len(added) != 1 || added[0] != "only-b-1-1.i386" {
		t.Errorf("added = %v", added)
	}
	if len(changed) != 1 || !strings.HasPrefix(changed[0], "shared ") {
		t.Errorf("changed = %v", changed)
	}
}

func TestDatabaseDiffEmptyMeansConsistent(t *testing.T) {
	a := NewDatabase()
	b := NewDatabase()
	for _, m := range []*Metadata{
		{Name: "x", Version: v("1", "1"), Arch: ArchI386},
		{Name: "y", Version: v("2", "1"), Arch: ArchI386},
	} {
		a.Install(m)
		b.Install(m)
	}
	removed, added, changed := a.Diff(b)
	if len(removed)+len(added)+len(changed) != 0 {
		t.Errorf("identical databases should diff empty: %v %v %v", removed, added, changed)
	}
}
