package dist

import (
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"rocks/internal/rpm"
)

func TestWriteAndReadTree(t *testing.T) {
	dir := t.TempDir()
	repo := rpm.NewRepository("src")
	p := rpm.New("dhcp", v("2.0", "5"), rpm.ArchI386,
		rpm.FileEntry{Path: "/usr/sbin/dhcpd", Mode: 0o755, Data: []byte("binary")})
	p.Summary = "DHCP server"
	repo.Add(p)
	repo.Add(rpm.New("glibc", v("2.2.4", "24"), rpm.ArchI386))

	n, err := WriteTree(repo, dir)
	if err != nil || n != 2 {
		t.Fatalf("WriteTree = %d, %v", n, err)
	}
	if _, err := os.Stat(filepath.Join(dir, "RedHat", "RPMS", "dhcp-2.0-5.i386.rpm")); err != nil {
		t.Fatalf("package file missing: %v", err)
	}
	manifest, err := os.ReadFile(filepath.Join(dir, "MANIFEST"))
	if err != nil || !strings.Contains(string(manifest), "dhcp-2.0-5.i386") {
		t.Errorf("MANIFEST = %q, %v", manifest, err)
	}

	got, err := ReadTree(dir, "reread")
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != 2 {
		t.Fatalf("reread %d packages", got.Len())
	}
	q := got.Get("dhcp-2.0-5.i386")
	if q == nil || q.Summary != "DHCP server" || string(q.Files[0].Data) != "binary" {
		t.Errorf("round trip lost data: %+v", q)
	}
	if q.Source != "reread" {
		t.Errorf("provenance = %q", q.Source)
	}
}

func TestReadTreeErrors(t *testing.T) {
	if _, err := ReadTree(t.TempDir(), "x"); err == nil {
		t.Error("empty dir should not be a distribution tree")
	}
}

// TestWriteTreeRemovesStalePackages: re-materializing into an existing tree
// must sync RedHat/RPMS/ to exactly the repository — files from a previous
// pass that the new package set no longer contains are deleted, not left to
// resurrect superseded packages on the next read.
func TestWriteTreeRemovesStalePackages(t *testing.T) {
	dir := t.TempDir()
	gen1 := rpm.NewRepository("gen1")
	gen1.Add(rpm.New("alpha", v("1.0", "1"), rpm.ArchI386))
	gen1.Add(rpm.New("beta", v("1.0", "1"), rpm.ArchI386))
	if _, err := WriteTree(gen1, dir); err != nil {
		t.Fatal(err)
	}
	gen2 := rpm.NewRepository("gen2")
	gen2.Add(rpm.New("alpha", v("1.0", "1"), rpm.ArchI386))
	gen2.Add(rpm.New("gamma", v("2.0", "1"), rpm.ArchI386))
	if _, err := WriteTree(gen2, dir); err != nil {
		t.Fatal(err)
	}

	if _, err := os.Stat(filepath.Join(dir, "RedHat", "RPMS", "beta-1.0-1.i386.rpm")); !os.IsNotExist(err) {
		t.Errorf("stale beta file survived the rewrite: %v", err)
	}
	manifest, err := os.ReadFile(filepath.Join(dir, "MANIFEST"))
	if err != nil || strings.Contains(string(manifest), "beta") {
		t.Errorf("MANIFEST still lists beta: %q, %v", manifest, err)
	}
	got, err := ReadTree(dir, "reread")
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != 2 || got.Get("beta-1.0-1.i386") != nil || got.Get("gamma-2.0-1.i386") == nil {
		t.Errorf("reread tree = %d packages, beta=%v", got.Len(), got.Get("beta-1.0-1.i386"))
	}
}

// TestRebuildRoundTripAfterUpdate is the regression for the stale-file bug:
// build → materialize → apply updates → re-materialize into the same tree →
// reread. Before the sync fix the superseded .rpm files lingered and the
// reread tree resurrected old versions (and now fails MANIFEST verification
// as orphans).
func TestRebuildRoundTripAfterUpdate(t *testing.T) {
	dir := t.TempDir()
	base := SyntheticRedHat()
	gen1 := Build("gen1", nil, Source{"base", base})
	if _, err := WriteTree(gen1.Repo, dir); err != nil {
		t.Fatal(err)
	}
	prev, err := ReadTree(dir, "prev")
	if err != nil {
		t.Fatal(err)
	}
	updates := GenerateUpdates(base, 20, 3)
	gen2 := Build("gen2", nil, Source{"prev", prev}, Source{"updates", updates})
	if _, err := WriteTree(gen2.Repo, dir); err != nil {
		t.Fatal(err)
	}

	got, err := ReadTree(dir, "reread")
	if err != nil {
		t.Fatalf("reread after in-place rebuild: %v", err)
	}
	if got.Len() != gen2.Repo.Len() {
		t.Fatalf("reread %d packages, wrote %d", got.Len(), gen2.Repo.Len())
	}
	for _, up := range updates.All() {
		newest := got.Newest(up.Name, up.Arch)
		if newest == nil || rpm.Compare(newest.Version, up.Version) < 0 {
			t.Errorf("%s: tree resurrected a superseded version (%v)", up.Name, newest)
		}
	}
	v, err := VerifyTree(dir)
	if err != nil {
		t.Fatal(err)
	}
	if !v.Clean() {
		t.Errorf("rebuilt tree failed verification: %s", v.Summary())
	}
}

// TestReadTreeDetectsTampering: a same-NVRA package rebuilt with different
// bytes slipped over a materialized file disagrees with the MANIFEST digest;
// raw bit-rot that breaks decoding is caught too.
func TestReadTreeDetectsTampering(t *testing.T) {
	dir := t.TempDir()
	repo := rpm.NewRepository("src")
	repo.Add(rpm.New("tool", v("1.0", "1"), rpm.ArchI386,
		rpm.FileEntry{Path: "/t", Mode: 0o644, Data: []byte("genuine")}))
	repo.Add(rpm.New("other", v("1.0", "1"), rpm.ArchI386,
		rpm.FileEntry{Path: "/o", Mode: 0o644, Data: []byte("fine")}))
	if _, err := WriteTree(repo, dir); err != nil {
		t.Fatal(err)
	}
	evil := rpm.New("tool", v("1.0", "1"), rpm.ArchI386,
		rpm.FileEntry{Path: "/t", Mode: 0o644, Data: []byte("swapped")})
	target := filepath.Join(dir, "RedHat", "RPMS", "tool-1.0-1.i386.rpm")
	if err := os.WriteFile(target, evil.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}

	if _, err := ReadTree(dir, "x"); err == nil || !strings.Contains(err.Error(), "tampered") ||
		!strings.Contains(err.Error(), "tool-1.0-1.i386.rpm") {
		t.Errorf("ReadTree of a tampered tree: err = %v", err)
	}
	v, err := VerifyTree(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(v.Tampered) != 1 || v.Tampered[0] != "tool-1.0-1.i386.rpm" || v.Verified != 1 {
		t.Errorf("verify = %+v", v)
	}

	// Bit-rot: damage the genuine file's payload bytes directly.
	raw, err := os.ReadFile(filepath.Join(dir, "RedHat", "RPMS", "other-1.0-1.i386.rpm"))
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)/2] ^= 0x40
	if err := os.WriteFile(filepath.Join(dir, "RedHat", "RPMS", "other-1.0-1.i386.rpm"), raw, 0o644); err != nil {
		t.Fatal(err)
	}
	v, err = VerifyTree(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(v.Tampered) != 2 || v.Verified != 0 {
		t.Errorf("verify after bit-rot = %+v, want both files tampered", v)
	}
	// A corrupt file is present-but-bad: it must not double-report as
	// missing just because its content no longer decodes to its NVRA.
	if len(v.Missing) != 0 {
		t.Errorf("tampered files also reported missing: %v", v.Missing)
	}
	if !strings.Contains(v.Summary(), "TREE CORRUPT") {
		t.Errorf("summary = %q", v.Summary())
	}
}

// TestVerifyTreeOrphansAndMissing: a .rpm the MANIFEST does not list and a
// listed file that is gone are both reported, by name, in one pass.
func TestVerifyTreeOrphansAndMissing(t *testing.T) {
	dir := t.TempDir()
	repo := rpm.NewRepository("src")
	repo.Add(rpm.New("alpha", v("1.0", "1"), rpm.ArchI386))
	repo.Add(rpm.New("beta", v("1.0", "1"), rpm.ArchI386))
	if _, err := WriteTree(repo, dir); err != nil {
		t.Fatal(err)
	}
	stray := rpm.New("stray", v("9.9", "9"), rpm.ArchI386)
	rpms := filepath.Join(dir, "RedHat", "RPMS")
	if err := os.WriteFile(filepath.Join(rpms, stray.Filename()), stray.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.Remove(filepath.Join(rpms, "beta-1.0-1.i386.rpm")); err != nil {
		t.Fatal(err)
	}

	v, err := VerifyTree(dir)
	if err != nil {
		t.Fatal(err)
	}
	if v.Clean() {
		t.Fatal("corrupt tree verified clean")
	}
	if len(v.Orphaned) != 1 || v.Orphaned[0] != "stray-9.9-9.i386.rpm" {
		t.Errorf("orphaned = %v", v.Orphaned)
	}
	if len(v.Missing) != 1 || v.Missing[0] != "beta-1.0-1.i386.rpm" {
		t.Errorf("missing = %v", v.Missing)
	}
	if _, err := ReadTree(dir, "x"); err == nil {
		t.Error("ReadTree accepted a tree with orphaned and missing files")
	}

	// A clean tree, for contrast, verifies everything.
	clean := t.TempDir()
	if _, err := WriteTree(repo, clean); err != nil {
		t.Fatal(err)
	}
	cv, err := VerifyTree(clean)
	if err != nil {
		t.Fatal(err)
	}
	if !cv.Clean() || cv.Verified != 2 || !strings.Contains(cv.Summary(), "verified 2/2") {
		t.Errorf("clean verify = %+v (%s)", cv, cv.Summary())
	}
}

func TestTreeRoundTripThroughBuild(t *testing.T) {
	// synth → write → read → build: the CLI's composition path.
	dir := t.TempDir()
	if _, err := WriteTree(SyntheticRedHat(), dir); err != nil {
		t.Fatal(err)
	}
	repo, err := ReadTree(dir, "mirror")
	if err != nil {
		t.Fatal(err)
	}
	d := Build("fromdisk", nil, Source{Name: "mirror", Repo: repo})
	if d.Repo.Len() != SyntheticRedHat().Len() {
		t.Errorf("lost packages: %d vs %d", d.Repo.Len(), SyntheticRedHat().Len())
	}
}

// TestOldFormatTreeSaysWhatItIs: a tree materialized before the package
// format changed holds tar archives under its .rpm names. Nothing decodes
// them any more, and neither reader calls that damage: both fail naming the
// first such file and saying it is not a package of this format and that the
// tree must be re-materialized with rocks-dist.
func TestOldFormatTreeSaysWhatItIs(t *testing.T) {
	dir := t.TempDir()
	repo := rpm.NewRepository("src")
	repo.Add(rpm.New("alpha", v("1.0", "1"), rpm.ArchI386))
	repo.Add(rpm.New("beta", v("1.0", "1"), rpm.ArchI386))
	if _, err := WriteTree(repo, dir); err != nil {
		t.Fatal(err)
	}
	// The old format's first 512 bytes: a tar header naming metadata.json.
	old := make([]byte, 512)
	copy(old, "metadata.json")
	copy(old[100:], "0000644\x000000000\x000000000\x0000000000523\x0000000000000\x00011660\x00 0")
	copy(old[257:], "ustar\x0000")
	if err := os.WriteFile(filepath.Join(dir, "RedHat", "RPMS", "alpha-1.0-1.i386.rpm"), old, 0o644); err != nil {
		t.Fatal(err)
	}
	_, readErr := ReadTree(dir, "x")
	_, verifyErr := VerifyTree(dir)
	for what, err := range map[string]error{"ReadTree": readErr, "VerifyTree": verifyErr} {
		if !errors.Is(err, rpm.ErrFormat) {
			t.Errorf("%s = %v, want rpm.ErrFormat", what, err)
			continue
		}
		for _, want := range []string{"alpha-1.0-1.i386.rpm", "not a package of this format", "re-materialized with rocks-dist"} {
			if !strings.Contains(err.Error(), want) {
				t.Errorf("%s = %v, which does not say %q", what, err, want)
			}
		}
	}
}
