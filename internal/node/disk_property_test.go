package node

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"
)

// TestPropertyDiskLastWriteWins: random sequences of writes/appends across
// two partitions; reading any path returns exactly the accumulated state,
// and reformatting the root never touches the state partition. A path is on
// a partition when it is the mountpoint or lies below it, so
// /state/partition10/x is on the root and goes with it.
func TestPropertyDiskLastWriteWins(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		d := NewDisk()
		d.Format("/")
		d.Format("/state/partition1")
		want := map[string][]byte{}
		paths := []string{
			"/etc/a", "/etc/b", "/usr/bin/x", "/state/partition10/x",
			"/state/partition1/r1", "/state/partition1/r2", "/state/partition1",
		}
		onState := map[string]bool{"/state/partition1/r1": true, "/state/partition1/r2": true, "/state/partition1": true}
		for op := 0; op < 50; op++ {
			p := paths[r.Intn(len(paths))]
			data := []byte(fmt.Sprintf("op%d", op))
			if r.Intn(3) == 0 {
				if d.AppendFile(p, data) != nil {
					return false
				}
				want[p] = append(want[p], data...)
			} else {
				if d.WriteFile(p, data, 0o644) != nil {
					return false
				}
				want[p] = append([]byte(nil), data...)
			}
		}
		for p, w := range want {
			got, err := d.ReadFile(p)
			if err != nil || string(got) != string(w) {
				return false
			}
		}
		// Reformat root: state partition contents must be intact, root gone.
		d.Format("/")
		for p, w := range want {
			got, err := d.ReadFile(p)
			if onState[p] {
				if err != nil || string(got) != string(w) {
					return false
				}
			} else if err == nil {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// TestWriteFileInPlace pins the ownership rule WriteFile's reuse of the
// replaced file's bytes rests on: nothing outside the disk ever holds them.
func TestWriteFileInPlace(t *testing.T) {
	d := NewDisk()
	d.Format("/")
	const path = "/etc/hosts"
	write := func(s string) {
		t.Helper()
		data := []byte(s)
		if err := d.WriteFile(path, data, 0); err != nil {
			t.Fatal(err)
		}
		for i := range data {
			data[i] = '#' // the caller's slice is the caller's again
		}
	}
	read := func() []byte {
		t.Helper()
		b, err := d.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	// What ReadFile returned stays what it was through a shorter, an equal and
	// a longer rewrite, and each rewrite reads back whole.
	held := map[string][]byte{}
	for _, s := range []string{"10.1.1.1 frontend-0\n", "short\n", "equal\n", "a longer file than any before it\n", "tiny\n"} {
		write(s)
		held[s] = read()
		for want, got := range held {
			if string(got) != want {
				t.Fatalf("after writing %q, bytes read earlier changed from %q to %q", s, want, got)
			}
		}
	}
	// A steady pass — same path, same size — allocates nothing.
	data := []byte("same!\n")
	if allocs := testing.AllocsPerRun(100, func() { d.WriteFile(path, data, 0o644) }); allocs != 0 {
		t.Errorf("rewriting a file at its size allocates %.0f times, want 0", allocs)
	}
	// AppendFile after an in-place shrink appends after the new end, not the old.
	write("a long line that will be cut short\n")
	write("cut\n")
	if err := d.AppendFile(path, []byte("appended\n")); err != nil {
		t.Fatal(err)
	}
	if got := string(read()); got != "cut\nappended\n" {
		t.Fatalf("append after a shrink read back %q", got)
	}
	// Format drops the old bytes for good: a shorter file written afterwards
	// does not sit in front of them.
	write("before the format, a long file\n")
	d.Format("/")
	write("after\n")
	if err := d.AppendFile(path, nil); err != nil {
		t.Fatal(err)
	}
	if got := string(read()); got != "after\n" {
		t.Fatalf("after Format, read back %q", got)
	}
}

// TestReadFileBesideRewrites: a reader beside a writer that rewrites one
// path in place, growing and shrinking it, only ever sees one whole version —
// every line of it from the same pass, the last one ended. Run under -race.
func TestReadFileBesideRewrites(t *testing.T) {
	d := NewDisk()
	d.Format("/")
	version := func(k int) []byte {
		return bytes.Repeat([]byte(fmt.Sprintf("10.255.255.%d compute-0-%d\n", k, k)), 1+k%17)
	}
	if err := d.WriteFile("/etc/hosts", version(0), 0); err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for k := 1; k <= 2000; k++ {
			if err := d.WriteFile("/etc/hosts", version(k), 0); err != nil {
				t.Error(err)
			}
		}
	}()
	for reading := true; reading; {
		select {
		case <-done:
			reading = false
		default:
		}
		got, err := d.ReadFile("/etc/hosts")
		if err != nil {
			t.Fatal(err)
		}
		var k int
		if _, err := fmt.Sscanf(string(got), "10.255.255.%d ", &k); err != nil || !bytes.Equal(got, version(k)) {
			t.Fatalf("read a file no pass wrote: %q (%v)", got, err)
		}
	}
}
