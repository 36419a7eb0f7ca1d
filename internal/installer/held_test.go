package installer

import (
	"bytes"
	"context"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"rocks/internal/dist"
	"rocks/internal/hardware"
	"rocks/internal/lifecycle"
	"rocks/internal/metrics"
	"rocks/internal/node"
	"rocks/internal/rpm"
)

// computeNodes returns n compute nodes with distinct MACs, each admitted.
func computeNodes(fe *testFrontend, n int) []*node.Node {
	macs := hardware.NewMACAllocator()
	out := make([]*node.Node, n)
	for i := range out {
		out[i] = node.New(hardware.PIIICompute(macs, 733))
		fe.admit(out[i], fmt.Sprintf("10.255.255.%d", 254-i), fmt.Sprintf("compute-0-%d", i), "compute")
	}
	return out
}

// bodyOf is the encoding of the package repo holds under nvra.
func bodyOf(repo *rpm.Repository, nvra string) []byte {
	body, _ := repo.Body(nvra)
	return body
}

// TestFetchFiguresFoldPerStream: each stream tallies its verified packages
// on its own and folds the tally into the shared Stats when it returns, so
// after two installs the fetch families read what counting every package
// into them would: 2 x 162 bodies from the frontend, their bytes on the
// wire, and one fetch-time observation each.
func TestFetchFiguresFoldPerStream(t *testing.T) {
	fe := newTestFrontend(t)
	cfg := fe.config()
	cfg.DisableEKV = true
	cfg.Stats = &Stats{}
	var wire int
	for _, n := range computeNodes(fe, 2) {
		if _, err := Run(context.Background(), n, cfg); err != nil {
			t.Fatal(err)
		}
		for _, m := range n.PackageDB().List() {
			wire += len(bodyOf(fe.dist.Repo, m.NVRA()))
		}
	}
	r := metrics.NewRegistry()
	cfg.Stats.RegisterMetrics(r)
	var text strings.Builder
	if err := r.WriteText(&text); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		`rocks_installer_fetch_source_total{source="frontend"} 324`,
		`rocks_installer_fetch_source_total{source="peer"} 0`,
		fmt.Sprintf(`rocks_installer_fetch_bytes_total{source="frontend"} %d`, wire),
		`rocks_installer_fetch_bytes_total{source="peer"} 0`,
		`rocks_installer_fetch_seconds_count 324`,
	} {
		if !strings.Contains(text.String(), want+"\n") {
			t.Errorf("the exposition lacks %q", want)
		}
	}
}

// TestInstallsShareWhatTheyVerified: two nodes installed through one store
// hold one copy of each package between them, and a write on one node — in
// place over an unpacked file, or appended to one — changes neither the
// other node's file nor the held package's bytes.
func TestInstallsShareWhatTheyVerified(t *testing.T) {
	fe := newTestFrontend(t)
	held := rpm.NewHeld()
	nodes := computeNodes(fe, 2)
	stores := make([]*rpm.Repository, len(nodes))
	for i, n := range nodes {
		cfg := fe.config()
		cfg.DisableEKV, cfg.Held = true, held
		cfg.FrontendURL, cfg.RelayStore = fe.srv.URL, rpm.NewRepository("store")
		stores[i] = cfg.RelayStore
		if _, err := Run(context.Background(), n, cfg); err != nil {
			t.Fatal(err)
		}
	}
	if held.Len() != 162 {
		t.Errorf("two installs of 162 packages hold %d", held.Len())
	}
	a, b := nodes[0], nodes[1]
	for _, m := range a.PackageDB().List() {
		p := stores[0].Get(m.NVRA())
		if p == nil || stores[1].Get(m.NVRA()) != p {
			t.Fatalf("%s is not one package in the two relay stores", m.NVRA())
		}
		if again, err := held.Decode(bodyOf(fe.dist.Repo, m.NVRA())); err != nil || again != p {
			t.Fatalf("%s decoded again is not the held package: %v", m.NVRA(), err)
		}
		want := fe.dist.Repo.Get(m.NVRA())
		for i, f := range p.Files {
			var err error
			if i%2 == 0 {
				err = a.Disk().WriteFile(f.Path, bytes.Repeat([]byte("x"), len(f.Data)), f.Mode)
			} else {
				err = a.Disk().AppendFile(f.Path, []byte("appended\n"))
			}
			if err != nil {
				t.Fatal(err)
			}
			if got, err := b.Disk().ReadFile(f.Path); err != nil || !bytes.Equal(got, want.Files[i].Data) {
				t.Fatalf("a write to %s on %s changed %s's file: %q, %v", f.Path, a.Name(), b.Name(), got, err)
			}
			if !bytes.Equal(f.Data, want.Files[i].Data) {
				t.Fatalf("a write to %s on %s changed the held package's bytes: %q", f.Path, a.Name(), f.Data)
			}
		}
	}
}

// TestRelayStoresLeaveAHeldPackageAlone: a peer may serve bodies whose
// header names no source, and the two relay stores that keep such a package
// stamp a copy each with their own name; under -race, two installs at once
// show any write to the package they share.
func TestRelayStoresLeaveAHeldPackageAlone(t *testing.T) {
	fe := newTestFrontend(t)
	anonymous := rpm.NewRepository("") // stamps no provenance
	for _, p := range fe.dist.Repo.All() {
		q := *p
		q.Source = ""
		anonymous.Add(&q)
	}
	peer := httptest.NewServer(dist.NewRepoServer(anonymous))
	defer peer.Close()
	fe.peers = []Source{{URL: peer.URL, Kind: SourcePeer, Node: "compute-0-9"}}

	held := rpm.NewHeld()
	nodes := computeNodes(fe, 2)
	stores := make([]*rpm.Repository, len(nodes))
	stats := &Stats{}
	var wg sync.WaitGroup
	for i, n := range nodes {
		cfg := fe.config()
		cfg.DisableEKV, cfg.Held, cfg.Stats = true, held, stats
		cfg.FrontendURL, cfg.RelayStore = fe.srv.URL, rpm.NewRepository(fmt.Sprintf("store-%d", i))
		stores[i] = cfg.RelayStore
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := Run(context.Background(), n, cfg); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	if got := stats.PeerFetches.Load(); got != 2*162 {
		t.Fatalf("%d bodies came from the peer, want %d", got, 2*162)
	}
	for i, n := range nodes {
		for _, m := range n.PackageDB().List() {
			if m.Source != "" {
				t.Fatalf("%s's record of %s carries source %q, which its body does not", n.Name(), m.NVRA(), m.Source)
			}
			if got := stores[i].Get(m.NVRA()).Source; got != stores[i].Name() {
				t.Fatalf("relay store %s holds %s from source %q", stores[i].Name(), m.NVRA(), got)
			}
		}
	}
}

// flipFirstPayloadByte rewrites a bundle answer so its first member's last
// byte — payload, not header — is flipped, with the member's checksum
// recomputed: a body that passes the transport's check and whose header is
// byte-identical to the package's.
func flipFirstPayloadByte(answer []byte) []byte {
	length := binary.BigEndian.Uint64(answer[0:8])
	body := answer[16 : 16+length]
	body[len(body)-1] ^= 0x01
	binary.BigEndian.PutUint32(answer[8:12], crc32.ChecksumIEEE(body))
	binary.BigEndian.PutUint32(answer[12:16], crc32.ChecksumIEEE(answer[:12]))
	return answer
}

// TestHeldBodyIsStillHashed: a body whose header is a held package's but one
// payload byte is not — its checksum recomputed, so only the package check
// can catch it: the comparison with the held bytes, which stands for the
// digest — is rejected as a corrupt body and counted, and the install
// retries it; the flipped byte never reaches the disk.
func TestHeldBodyIsStillHashed(t *testing.T) {
	fe := newTestFrontend(t)
	held := rpm.NewHeld()
	nodes := computeNodes(fe, 2)
	var first string // the NVRA of the first member the second install is sent
	var once sync.Once
	for i, n := range nodes {
		cfg := fe.config()
		cfg.DisableEKV, cfg.Held, cfg.FetchRetries = true, held, 1
		cfg.Stats, cfg.Events = &Stats{}, lifecycle.NewBus(512)
		if i == 1 {
			clean := fe.srv.Client().Transport
			cfg.HTTP = &http.Client{Transport: roundTripperFunc(func(r *http.Request) (*http.Response, error) {
				if !isPackageStream(r) {
					return clean.RoundTrip(r)
				}
				ask, _ := io.ReadAll(r.Body)
				r.Body = io.NopCloser(bytes.NewReader(ask))
				resp, err := clean.RoundTrip(r)
				if err != nil {
					return nil, err
				}
				once.Do(func() {
					answer, _ := io.ReadAll(resp.Body)
					resp.Body.Close()
					first, _, _ = strings.Cut(string(ask), "\n")
					resp.Body = io.NopCloser(bytes.NewReader(flipFirstPayloadByte(answer)))
					resp.ContentLength = int64(len(answer))
				})
				return resp, nil
			})}
		}
		if _, err := Run(context.Background(), n, cfg); err != nil {
			t.Fatal(err)
		}
		if held.Len() != 162 {
			t.Fatalf("install %d: %d packages held, want every one of the 162", i, held.Len())
		}
		r := metrics.NewRegistry()
		cfg.Stats.RegisterMetrics(r)
		var text strings.Builder
		r.WriteText(&text)
		want := fmt.Sprintf("rocks_installer_packages_corrupt_total %d\n", i)
		if !strings.Contains(text.String(), want) {
			t.Errorf("install %d: the exposition lacks %q", i, want)
		}
		if got := cfg.Events.Recent(lifecycle.Filter{Type: lifecycle.EventPackageCorrupt}); len(got) != i {
			t.Errorf("install %d: package-corrupt events %v", i, got)
		}
	}
	if first == "" {
		t.Fatal("the second install's stream was never tampered with")
	}
	want := fe.dist.Repo.Get(first)
	for _, f := range want.Files {
		if got, err := nodes[1].Disk().ReadFile(f.Path); err != nil || !bytes.Equal(got, f.Data) {
			t.Errorf("%s on the disk reads %q, %v; the package carries %q", f.Path, got, err, f.Data)
		}
	}
}

// TestHeldPackagesStillHashToTheirDigests holds the premise of the store's
// hit path, which compares a body with the held package's bytes instead of
// hashing it: nothing writes those bytes. Two nodes install through one
// store, a third installs from the first one's relay store, and each node
// then writes over and appends to every file it unpacked. Every package
// still in the store hashes to its own digest afterwards.
func TestHeldPackagesStillHashToTheirDigests(t *testing.T) {
	fe := newTestFrontend(t)
	held := rpm.NewHeld()
	nodes := computeNodes(fe, 3)
	stores := make([]*rpm.Repository, len(nodes))
	for i, n := range nodes {
		if i == 2 {
			peer := httptest.NewServer(dist.NewRepoServer(stores[0]))
			defer peer.Close()
			fe.peers = []Source{{URL: peer.URL, Kind: SourcePeer, Node: nodes[0].Name()}}
		}
		cfg := fe.config()
		cfg.DisableEKV, cfg.Held, cfg.Stats = true, held, &Stats{}
		cfg.FrontendURL, cfg.RelayStore = fe.srv.URL, rpm.NewRepository(fmt.Sprintf("store-%d", i))
		stores[i] = cfg.RelayStore
		if _, err := Run(context.Background(), n, cfg); err != nil {
			t.Fatal(err)
		}
		if i == 2 && cfg.Stats.PeerFetches.Load() == 0 {
			t.Fatal("the third install fetched nothing from the relay store")
		}
		for _, m := range n.PackageDB().List() {
			for j, f := range stores[i].Get(m.NVRA()).Files {
				var err error
				if j%2 == 0 {
					err = n.Disk().WriteFile(f.Path, bytes.Repeat([]byte("x"), len(f.Data)), f.Mode)
				} else {
					err = n.Disk().AppendFile(f.Path, []byte("appended\n"))
				}
				if err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	for _, p := range stores[0].All() {
		if again, err := held.Decode(bodyOf(fe.dist.Repo, p.NVRA())); err != nil || again != p {
			t.Fatalf("%s is not the package the store holds: %v", p.NVRA(), err)
		}
		if rpm.PayloadDigest(p.Files) != p.Digest {
			t.Errorf("the held %s no longer hashes to its digest", p.NVRA())
		}
	}
}
