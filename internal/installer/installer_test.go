package installer

import (
	"context"
	"encoding/json"
	"errors"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"rocks/internal/dhcp"
	"rocks/internal/dist"
	"rocks/internal/ekv"
	"rocks/internal/faults"
	"rocks/internal/hardware"
	"rocks/internal/kickstart"
	"rocks/internal/lifecycle"
	"rocks/internal/node"
	"rocks/internal/rpm"
	"rocks/internal/syslogd"
)

// testFrontend is a miniature frontend: a kickstart CGI, a served
// distribution, and a DHCP server on a private bus — just enough to install
// nodes without the full core orchestrator (which has its own tests).
type testFrontend struct {
	srv     *httptest.Server
	bus     *dhcp.Bus
	dhcpd   *dhcp.Server
	dist    *dist.Distribution
	distSrv *dist.Server
	appcfg  map[string]string // IP → appliance
	archcfg map[string]string // IP → arch
	peers   []Source          // what the /v1/relays registry hands out
	// requests counts what reached the server, by "METHOD path" with the
	// /install/dist prefix and any package file name cut off.
	requests sync.Map     // string → *atomic.Int64
	conns    atomic.Int64 // connections accepted
}

// count returns how many requests of one kind the frontend has served.
func (fe *testFrontend) count(kind string) int64 {
	if v, ok := fe.requests.Load(kind); ok {
		return v.(*atomic.Int64).Load()
	}
	return 0
}

func newTestFrontend(t *testing.T) *testFrontend {
	t.Helper()
	fe := &testFrontend{
		bus:     dhcp.NewBus(),
		appcfg:  map[string]string{},
		archcfg: map[string]string{},
	}
	fe.dist = dist.Build("rocks", kickstart.DefaultFramework(),
		dist.Source{Name: "redhat", Repo: dist.SyntheticRedHat()})

	fe.distSrv = dist.NewServer(fe.dist)
	mux := http.NewServeMux()
	mux.Handle("/install/dist/", http.StripPrefix("/install/dist", fe.distSrv))
	mux.HandleFunc("/install/kickstart.cgi", func(w http.ResponseWriter, r *http.Request) {
		ip := r.Header.Get(ClientIPHeader)
		app, ok := fe.appcfg[ip]
		if !ok {
			http.Error(w, "unknown node "+ip, http.StatusNotFound)
			return
		}
		profile, err := fe.dist.Framework.Generate(kickstart.Request{
			Appliance: app,
			Arch:      fe.archcfg[ip],
			NodeName:  "node-" + ip,
			Attrs:     kickstart.DefaultAttrs(fe.srv.URL+"/install/dist", "10.1.1.1"),
		})
		if err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		w.Write([]byte(profile.Render()))
	})
	mux.HandleFunc("/v1/relays", func(w http.ResponseWriter, r *http.Request) {
		json.NewEncoder(w).Encode(map[string]interface{}{"data": map[string]interface{}{"sources": fe.peers}})
	})
	mux.HandleFunc("/v1/facts", func(w http.ResponseWriter, r *http.Request) {
		io.Copy(io.Discard, r.Body)
		io.WriteString(w, `{"data":{}}`)
	})
	fe.srv = httptest.NewUnstartedServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		kind := strings.TrimPrefix(r.URL.Path, "/install/dist")
		if strings.HasSuffix(kind, ".rpm") {
			kind = kind[:strings.LastIndexByte(kind, '/')+1] + "*.rpm"
		}
		n, _ := fe.requests.LoadOrStore(r.Method+" "+kind, new(atomic.Int64))
		n.(*atomic.Int64).Add(1)
		mux.ServeHTTP(w, r)
	}))
	fe.srv.Config.ConnState = func(_ net.Conn, state http.ConnState) {
		if state == http.StateNew {
			fe.conns.Add(1)
		}
	}
	fe.srv.Start()
	t.Cleanup(fe.srv.Close)

	fe.dhcpd = dhcp.NewServer("frontend-0", syslogd.New())
	fe.bus.Register(fe.dhcpd)
	return fe
}

// admit binds a node's MAC the way insert-ethers would.
func (fe *testFrontend) admit(n *node.Node, ip, hostname, appliance string) {
	fe.appcfg[ip] = appliance
	fe.archcfg[ip] = n.HW.Arch
	fe.dhcpd.SetBinding(n.MAC(), dhcp.Binding{IP: ip, Hostname: hostname, NextServer: fe.srv.URL})
}

func (fe *testFrontend) config() Config {
	return Config{Bus: fe.bus, HTTP: fe.srv.Client(), DHCPRetry: 2 * time.Millisecond, DHCPTimeout: 5 * time.Second}
}

func newComputeNode() *node.Node {
	macs := hardware.NewMACAllocator()
	return node.New(hardware.PIIICompute(macs, 733))
}

func TestFullComputeInstall(t *testing.T) {
	fe := newTestFrontend(t)
	n := newComputeNode()
	fe.admit(n, "10.255.255.254", "compute-0-0", "compute")

	res, err := Run(context.Background(), n, fe.config())
	if err != nil {
		t.Fatal(err)
	}
	if n.State() != node.StateBooting {
		t.Errorf("state = %s, want booting", n.State())
	}
	if n.Name() != "compute-0-0" || n.IP() != "10.255.255.254" {
		t.Errorf("identity = %s/%s", n.Name(), n.IP())
	}
	if res.Packages != 162 {
		t.Errorf("installed %d packages, want 162", res.Packages)
	}
	want := int64(dist.ComputeTransferBytes)
	if res.Bytes < want*99/100 || res.Bytes > want*101/100 {
		t.Errorf("transferred %d bytes, want ~%d", res.Bytes, want)
	}
	if !n.Disk().Bootable() {
		t.Error("disk not bootable after install")
	}
	if n.KernelVersion() == "" {
		t.Error("kernel version not recorded")
	}
	if !res.GMRebuilt || !n.MyrinetOperational() {
		t.Error("Myrinet driver not rebuilt for this kernel")
	}
	if n.PackageDB().Len() != 162 {
		t.Errorf("package db has %d entries", n.PackageDB().Len())
	}
	if n.Installs() != 1 {
		t.Errorf("install count = %d", n.Installs())
	}
}

func TestPostScriptsConfigureNode(t *testing.T) {
	fe := newTestFrontend(t)
	n := newComputeNode()
	fe.admit(n, "10.255.255.254", "compute-0-0", "compute")
	if _, err := Run(context.Background(), n, fe.config()); err != nil {
		t.Fatal(err)
	}
	// chkconfig effects → services.
	for _, svc := range []string{"sshd", "rexecd"} {
		if !n.HasService(svc) {
			t.Errorf("service %s not enabled; services=%v", svc, n.Services())
		}
	}
	// echo >> effects → files.
	fstab, err := n.Disk().ReadFile("/etc/fstab")
	if err != nil || !strings.Contains(string(fstab), "10.1.1.1:/export/home /home nfs") {
		t.Errorf("fstab = %q, %v", fstab, err)
	}
	hosts, err := n.Disk().ReadFile("/etc/hosts")
	if err != nil || !strings.Contains(string(hosts), "10.1.1.1 frontend") {
		t.Errorf("hosts = %q, %v", hosts, err)
	}
	// Scripts themselves are preserved on disk.
	if got := n.Disk().List("/root/ks-post"); len(got) == 0 {
		t.Error("post scripts not written to /root")
	}
}

func TestReinstallPreservesStatePartition(t *testing.T) {
	fe := newTestFrontend(t)
	n := newComputeNode()
	fe.admit(n, "10.255.255.254", "compute-0-0", "compute")
	if _, err := Run(context.Background(), n, fe.config()); err != nil {
		t.Fatal(err)
	}
	// A user leaves data on the persistent partition; root gets scribbled.
	if err := n.Disk().WriteFile("/state/partition1/results.dat", []byte("keep me"), 0o644); err != nil {
		t.Fatal(err)
	}
	n.Disk().WriteFile("/etc/broken.conf", []byte("experiment gone wrong"), 0o644)

	n.ForceReinstall()
	if _, err := Run(context.Background(), n, fe.config()); err != nil {
		t.Fatal(err)
	}
	if _, err := n.Disk().ReadFile("/etc/broken.conf"); err == nil {
		t.Error("root partition state survived reinstall")
	}
	data, err := n.Disk().ReadFile("/state/partition1/results.dat")
	if err != nil || string(data) != "keep me" {
		t.Errorf("persistent data lost: %q, %v", data, err)
	}
	if n.Installs() != 2 {
		t.Errorf("install count = %d", n.Installs())
	}
}

func TestReinstallRestoresKnownGoodState(t *testing.T) {
	// §3.2's question: "My experiment on node X just went horribly wrong.
	// How do I restore the last known good state?" — reinstall, then the
	// manifest matches a fresh install exactly.
	fe := newTestFrontend(t)
	a := newComputeNode()
	fe.admit(a, "10.255.255.254", "compute-0-0", "compute")
	if _, err := Run(context.Background(), a, fe.config()); err != nil {
		t.Fatal(err)
	}
	reference := a.PackageDB().Manifest()

	// Wreck the node's software state.
	a.PackageDB().Erase("glibc")
	a.PackageDB().Install(newMeta("rogue-package", "6.6.6", "6"))
	if a.PackageDB().Manifest() == reference {
		t.Fatal("sabotage failed")
	}
	a.ForceReinstall()
	if _, err := Run(context.Background(), a, fe.config()); err != nil {
		t.Fatal(err)
	}
	if a.PackageDB().Manifest() != reference {
		t.Error("reinstall did not restore the known good state")
	}
}

func TestFrontendInstall(t *testing.T) {
	fe := newTestFrontend(t)
	macs := hardware.NewMACAllocator()
	n := node.New(hardware.Frontend(macs))
	fe.admit(n, "10.1.1.1", "frontend-0", "frontend")
	res, err := Run(context.Background(), n, fe.config())
	if err != nil {
		t.Fatal(err)
	}
	if res.GMRebuilt {
		t.Error("frontend has no Myrinet; nothing to rebuild")
	}
	if _, ok := n.PackageDB().Query("mysql-server"); !ok {
		t.Error("frontend missing mysql-server")
	}
	if _, ok := n.PackageDB().Query("pbs-mom"); ok {
		t.Error("frontend must not run the compute-only pbs-mom")
	}
	for _, svc := range []string{"httpd", "mysqld", "ypserv", "pbs_server", "maui"} {
		if !n.HasService(svc) {
			t.Errorf("frontend service %s missing; got %v", svc, n.Services())
		}
	}
}

func TestEKVObservableDuringInstall(t *testing.T) {
	fe := newTestFrontend(t)
	n := newComputeNode()
	fe.admit(n, "10.255.255.254", "compute-0-0", "compute")

	// Attach as the eKV port comes up, mid-install. The installer hands the
	// address over and waits for the watcher (node.WatchEKV): an install
	// lasts a millisecond or two, and a poll of EKVAddr attached after it as
	// often as during it.
	type attached struct {
		c   *ekv.Client
		err error
	}
	up := make(chan attached, 1)
	n.WatchEKV(func(addr string) {
		c, err := ekv.Attach(addr)
		if err == nil {
			<-c.Receiving()
		}
		up <- attached{c, err}
	})
	done := make(chan error, 1)
	go func() {
		_, err := Run(context.Background(), n, fe.config())
		done <- err
	}()
	var c *ekv.Client
	select {
	case a := <-up:
		if a.err != nil {
			t.Fatal(a.err)
		}
		c = a.c
	case <-time.After(5 * time.Second):
		t.Fatal("eKV never came up")
	}
	defer c.Close()
	if !c.WaitFor("Package Installation", 5*time.Second) {
		t.Errorf("eKV screen = %q", c.Screen())
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if !c.WaitFor("installation complete", 5*time.Second) {
		t.Errorf("final screen missing completion banner: %q", c.Screen())
	}
}

func TestInstallFailsWithoutDHCPBinding(t *testing.T) {
	fe := newTestFrontend(t)
	n := newComputeNode()
	cfg := fe.config()
	cfg.DHCPTimeout = 50 * time.Millisecond
	_, err := Run(context.Background(), n, cfg)
	if err == nil || !strings.Contains(err.Error(), "DHCP timeout") {
		t.Fatalf("err = %v", err)
	}
	if n.State() != node.StateCrashed {
		t.Errorf("state = %s, want crashed", n.State())
	}
}

func TestInstallFailsOnMissingPackage(t *testing.T) {
	fe := newTestFrontend(t)
	// Sabotage the distribution: drop glibc entirely.
	for _, p := range fe.dist.Repo.Versions("glibc") {
		fe.dist.Repo.Remove(p.NVRA())
	}
	n := newComputeNode()
	fe.admit(n, "10.255.255.254", "compute-0-0", "compute")
	_, err := Run(context.Background(), n, fe.config())
	if err == nil || !strings.Contains(err.Error(), "glibc") {
		t.Fatalf("err = %v", err)
	}
	if n.State() != node.StateCrashed {
		t.Errorf("state = %s, want crashed", n.State())
	}
}

func TestInstallFailsForMyrinetWithoutSourcePackage(t *testing.T) {
	fe := newTestFrontend(t)
	for _, p := range fe.dist.Repo.Versions("myrinet-gm-src") {
		fe.dist.Repo.Remove(p.NVRA())
	}
	// Also remove it from the profile? No: the profile demands it, so the
	// install fails at package fetch — which is the right diagnostic.
	n := newComputeNode()
	fe.admit(n, "10.255.255.254", "compute-0-0", "compute")
	_, err := Run(context.Background(), n, fe.config())
	if err == nil || !strings.Contains(err.Error(), "myrinet-gm-src") {
		t.Fatalf("err = %v", err)
	}
}

func TestInstallUnknownNodeGets404(t *testing.T) {
	fe := newTestFrontend(t)
	n := newComputeNode()
	// DHCP binding exists but the CGI doesn't know the IP → kickstart 404.
	fe.dhcpd.SetBinding(n.MAC(), dhcp.Binding{IP: "10.9.9.9", Hostname: "ghost", NextServer: fe.srv.URL})
	_, err := Run(context.Background(), n, fe.config())
	if err == nil || !strings.Contains(err.Error(), "404") {
		t.Fatalf("err = %v", err)
	}
}

func TestInstallPicksNewestPackageVersion(t *testing.T) {
	fe := newTestFrontend(t)
	// Push a security update for glibc into the served repo (what a
	// rocks-dist rebuild does), then install: the node must get the update.
	cur := fe.dist.Repo.Newest("glibc", "i386")
	up := *cur
	upv := cur.Version
	upv.Release = upv.Release + ".security1"
	up.Version = upv
	fe.dist.Repo.Add(&up)

	n := newComputeNode()
	fe.admit(n, "10.255.255.254", "compute-0-0", "compute")
	if _, err := Run(context.Background(), n, fe.config()); err != nil {
		t.Fatal(err)
	}
	m, _ := n.PackageDB().Query("glibc")
	if !strings.HasSuffix(m.Version.Release, ".security1") {
		t.Errorf("node installed %s, want the security update", m.NVRA())
	}
}

func newMeta(name, ver, rel string) rpm.Metadata {
	return rpm.Metadata{Name: name, Version: rpm.Version{Version: ver, Release: rel}, Arch: "i386"}
}

// TestInteractiveRetryOverEKV exercises §6.3's interaction path: a package
// fetch fails mid-install, the administrator watching over eKV fixes the
// distribution and types "retry", and the installation completes without a
// restart.
func TestInteractiveRetryOverEKV(t *testing.T) {
	fe := newTestFrontend(t)
	// Sabotage: remove glibc so the install wedges early.
	var removed []*rpm.Package
	for _, p := range fe.dist.Repo.Versions("glibc") {
		removed = append(removed, p)
		fe.dist.Repo.Remove(p.NVRA())
	}
	n := newComputeNode()
	fe.admit(n, "10.255.255.254", "compute-0-0", "compute")

	cfg := fe.config()
	cfg.InteractiveRetryWait = 10 * time.Second
	done := make(chan error, 1)
	go func() {
		_, err := Run(context.Background(), n, cfg)
		done <- err
	}()

	// Attach like shoot-node's xterm and wait for the failure prompt.
	var addr string
	for deadline := time.Now().Add(5 * time.Second); addr == "" && time.Now().Before(deadline); {
		addr = n.EKVAddr()
		time.Sleep(time.Millisecond)
	}
	client, err := ekv.Attach(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	if !client.WaitFor("type 'retry'", 10*time.Second) {
		t.Fatalf("no retry prompt; screen = %q", client.Screen())
	}
	// Fix the distribution, then type retry.
	for _, p := range removed {
		fe.dist.Repo.Add(p)
	}
	if err := client.Send("retry"); err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatalf("install failed despite the fix: %v", err)
	}
	if n.State() != node.StateBooting {
		t.Errorf("state = %s", n.State())
	}
	if _, ok := n.PackageDB().Query("glibc"); !ok {
		t.Error("glibc missing after retry")
	}
}

// TestInteractiveAbortOverEKV: the administrator gives up; the install
// fails promptly instead of waiting out the timeout.
func TestInteractiveAbortOverEKV(t *testing.T) {
	fe := newTestFrontend(t)
	for _, p := range fe.dist.Repo.Versions("glibc") {
		fe.dist.Repo.Remove(p.NVRA())
	}
	n := newComputeNode()
	fe.admit(n, "10.255.255.254", "compute-0-0", "compute")
	cfg := fe.config()
	cfg.InteractiveRetryWait = time.Minute
	done := make(chan error, 1)
	go func() {
		_, err := Run(context.Background(), n, cfg)
		done <- err
	}()
	var addr string
	for deadline := time.Now().Add(5 * time.Second); addr == "" && time.Now().Before(deadline); {
		addr = n.EKVAddr()
		time.Sleep(time.Millisecond)
	}
	client, err := ekv.Attach(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	if !client.WaitFor("type 'retry'", 10*time.Second) {
		t.Fatalf("no retry prompt; screen = %q", client.Screen())
	}
	client.Send("abort")
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("aborted install reported success")
		}
	case <-time.After(10 * time.Second):
		t.Fatal("abort did not terminate the install")
	}
	if n.State() != node.StateCrashed {
		t.Errorf("state = %s", n.State())
	}
}

// TestFigure7StatusPanel checks the install screen carries the paper's
// Figure 7 panel: Name/Size rows plus Total/Completed/Remaining accounting
// with byte totals from the manifest.
func TestFigure7StatusPanel(t *testing.T) {
	fe := newTestFrontend(t)
	n := newComputeNode()
	fe.admit(n, "10.255.255.254", "compute-0-0", "compute")
	res, err := Run(context.Background(), n, fe.config())
	if err != nil {
		t.Fatal(err)
	}
	screen := res.EKVTranscript
	for _, want := range []string{
		"+---------------- Package Installation -----------------+",
		"| Name   :",
		"| Size   :",
		"| Total     : 162",
		"| Completed : 162",
		"| Remaining : 0",
		"224M", // 225 MB minus per-package rounding
	} {
		if !strings.Contains(screen, want) {
			t.Errorf("panel missing %q", want)
		}
	}
	// The panel redraws per package: 162 panels in the transcript.
	if got := strings.Count(screen, "Package Installation"); got != 162 {
		t.Errorf("panel drawn %d times, want 162", got)
	}
}

// TestInstallRefusesUndersizedDisk: the kickstart's fixed partitions must
// fit the probed hardware — a node with a too-small disk fails cleanly
// instead of pretending to install.
func TestInstallRefusesUndersizedDisk(t *testing.T) {
	fe := newTestFrontend(t)
	macs := hardware.NewMACAllocator()
	hw := hardware.PIIICompute(macs, 733)
	hw.Disk.SizeMB = 2000 // compute kickstart wants a 4096 MB root
	n := node.New(hw)
	fe.admit(n, "10.255.255.254", "compute-0-0", "compute")
	_, err := Run(context.Background(), n, fe.config())
	if err == nil || !strings.Contains(err.Error(), "MB") {
		t.Fatalf("err = %v", err)
	}
	if n.State() != node.StateCrashed {
		t.Errorf("state = %s", n.State())
	}
}

// TestPreScriptsRecorded: %pre sections run before partitioning, in the
// install environment; their transcript lands in the install log.
func TestPreScriptsRecorded(t *testing.T) {
	fe := newTestFrontend(t)
	compute := fe.dist.Framework.Nodes["compute"]
	compute.Pre = append(compute.Pre, kickstart.Script{Text: "dd if=/dev/zero of=/dev/sda bs=512 count=1"})
	n := newComputeNode()
	fe.admit(n, "10.255.255.254", "compute-0-0", "compute")
	res, err := Run(context.Background(), n, fe.config())
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(res.EKVTranscript, "pre-installation scripts") {
		t.Error("pre phase missing from eKV")
	}
	found := false
	for _, l := range n.InstallLog() {
		if strings.Contains(l, "pre 0: dd if=/dev/zero") {
			found = true
		}
	}
	if !found {
		t.Errorf("pre script not logged: %v", n.InstallLog())
	}
}

// TestDefaultClientHasTimeout: satellite fix — withDefaults must never fall
// back to http.DefaultClient (no timeout), or one hung fetch wedges an
// install forever.
func TestDefaultClientHasTimeout(t *testing.T) {
	cfg := Config{}.withDefaults()
	if cfg.HTTP == http.DefaultClient {
		t.Fatal("withDefaults fell back to http.DefaultClient")
	}
	if cfg.HTTP.Timeout <= 0 {
		t.Fatalf("default client timeout = %v, want positive", cfg.HTTP.Timeout)
	}
}

// TestAutomaticRetryAbsorbsTransientHTTPErrors: a bounded fault storm of
// 500s and truncations across kickstart and package fetches is absorbed by
// the non-interactive retry budget — no eKV keyboard, no crash.
func TestAutomaticRetryAbsorbsTransientHTTPErrors(t *testing.T) {
	fe := newTestFrontend(t)
	n := newComputeNode()
	fe.admit(n, "10.255.255.254", "compute-0-0", "compute")

	inj := faults.NewInjector(17,
		faults.Rule{Op: faults.OpHTTPKickstart, Mode: faults.ModeTruncate, Count: 1},
		// Three, not four: the first package-seam request is the manifest,
		// and three consecutive 500s on it is all a 4-attempt budget absorbs
		// when there is no unverified listing to fall back to.
		faults.Rule{Op: faults.OpHTTPPackage, Mode: faults.ModeError500, Count: 3},
	)
	cfg := fe.config()
	cfg.HTTP = &http.Client{Transport: faults.NewTransport(inj, fe.srv.Client().Transport, nil)}
	cfg.DisableEKV = true
	cfg.FetchRetries = 3
	cfg.FetchBackoff = time.Millisecond

	res, err := Run(context.Background(), n, cfg)
	if err != nil {
		t.Fatalf("install did not survive the storm: %v", err)
	}
	if res.Packages != 162 {
		t.Errorf("installed %d packages, want 162", res.Packages)
	}
	if !inj.Exhausted() {
		t.Errorf("fault budget not consumed: %v", inj.Injected())
	}
	if n.State() != node.StateBooting {
		t.Errorf("state = %s", n.State())
	}
}

// TestRetryBudgetExhaustionCrashes: unlimited 500s defeat a bounded retry
// budget; the failure is still classified transient so the supervisor knows
// a re-shoot is worthwhile.
func TestRetryBudgetExhaustionCrashes(t *testing.T) {
	fe := newTestFrontend(t)
	n := newComputeNode()
	fe.admit(n, "10.255.255.254", "compute-0-0", "compute")

	inj := faults.NewInjector(17, faults.Rule{Op: faults.OpHTTPPackage})
	cfg := fe.config()
	cfg.HTTP = &http.Client{Transport: faults.NewTransport(inj, fe.srv.Client().Transport, nil)}
	cfg.DisableEKV = true
	cfg.FetchRetries = 2
	cfg.FetchBackoff = time.Millisecond

	_, err := Run(context.Background(), n, cfg)
	if err == nil {
		t.Fatal("install succeeded against a permanently failing server")
	}
	if !dist.IsTransient(err) {
		t.Errorf("exhausted-budget error not transient: %v", err)
	}
	if n.State() != node.StateCrashed {
		t.Errorf("state = %s, want crashed", n.State())
	}
}

// TestFaultHookWedgesInstall: the injection seam for mid-install wedges.
func TestFaultHookWedgesInstall(t *testing.T) {
	fe := newTestFrontend(t)
	n := newComputeNode()
	fe.admit(n, "10.255.255.254", "compute-0-0", "compute")

	inj := faults.NewInjector(3, faults.Rule{Op: faults.OpInstallWedge, Count: 1})
	cfg := fe.config()
	cfg.DisableEKV = true
	cfg.FaultHook = faults.InstallHook(inj, func() []string { return []string{n.MAC()} })

	_, err := Run(context.Background(), n, cfg)
	if !errors.Is(err, faults.ErrWedged) {
		t.Fatalf("err = %v, want ErrWedged", err)
	}
	if n.State() != node.StateCrashed {
		t.Errorf("state = %s, want crashed", n.State())
	}
	// The budget is spent: the next run goes through.
	n.ForceReinstall()
	if _, err := Run(context.Background(), n, cfg); err != nil {
		t.Fatalf("second run: %v", err)
	}
}

// roundTripperFunc adapts a function to http.RoundTripper.
type roundTripperFunc func(*http.Request) (*http.Response, error)

func (f roundTripperFunc) RoundTrip(r *http.Request) (*http.Response, error) { return f(r) }

// isPackageStream reports whether a request is the installer asking a source
// for package bodies (the bundle verb), as opposed to the manifest or the
// kickstart file.
func isPackageStream(r *http.Request) bool {
	return r.Method == http.MethodPost && strings.HasSuffix(r.URL.Path, "/RedHat/RPMS/")
}

// corruptPackagesClient returns a client that routes package-body fetches
// through the bit-flipping fault transport and everything else (manifest,
// kickstart) through the clean one — corruption lands only on RPM
// payloads, which is what isolates the digest check under test.
func corruptPackagesClient(fe *testFrontend, inj *faults.Injector) *http.Client {
	clean := fe.srv.Client().Transport
	faulty := faults.NewTransport(inj, clean, nil)
	return &http.Client{Transport: roundTripperFunc(func(r *http.Request) (*http.Response, error) {
		if isPackageStream(r) {
			return faulty.RoundTrip(r)
		}
		return clean.RoundTrip(r)
	})}
}

// TestInstallDetectsAndRetriesCorruptPackages: a bounded storm of bit-flipped
// package bodies is caught by digest verification, surfaced as
// package-corrupt lifecycle events, and absorbed by the retry budget — the
// install completes and no corrupt byte reaches the disk.
func TestInstallDetectsAndRetriesCorruptPackages(t *testing.T) {
	fe := newTestFrontend(t)
	n := newComputeNode()
	fe.admit(n, "10.255.255.254", "compute-0-0", "compute")

	inj := faults.NewInjector(23, faults.Rule{
		Op: faults.OpHTTPPackage, Mode: faults.ModeCorrupt, Count: 2})
	cfg := fe.config()
	cfg.HTTP = corruptPackagesClient(fe, inj)
	cfg.DisableEKV = true
	cfg.FetchRetries = 4
	cfg.FetchBackoff = time.Millisecond
	cfg.Events = lifecycle.NewBus(256)

	res, err := Run(context.Background(), n, cfg)
	if err != nil {
		t.Fatalf("install did not survive bounded corruption: %v", err)
	}
	if res.Packages != 162 {
		t.Errorf("installed %d packages, want 162", res.Packages)
	}
	if !inj.Exhausted() {
		t.Errorf("corruption budget not consumed: %v", inj.Injected())
	}
	corrupt := cfg.Events.Recent(lifecycle.Filter{Type: lifecycle.EventPackageCorrupt})
	if len(corrupt) != 2 {
		t.Fatalf("package-corrupt events = %d, want 2:\n%v", len(corrupt), corrupt)
	}
	for _, e := range corrupt {
		if !strings.Contains(e.Detail, ".rpm") {
			t.Errorf("corrupt event does not name the file: %q", e.Detail)
		}
		if e.Phase != lifecycle.PhaseInstall {
			t.Errorf("corrupt event phase = %s", e.Phase)
		}
	}
	if got := cfg.Events.Recent(lifecycle.Filter{Type: lifecycle.EventInstallComplete}); len(got) != 1 {
		t.Errorf("install-complete events = %d, want 1", len(got))
	}
	// Every installed payload byte survived the storm intact: the package DB
	// was filled from verified bodies only.
	if n.PackageDB().Len() != 162 {
		t.Errorf("package db has %d entries", n.PackageDB().Len())
	}
}

// TestPersistentCorruptionFailsInstallNamingFile: when every package body
// arrives flipped, the retry budget runs out and the install fails —
// transiently (a re-shoot against a healed mirror is worthwhile), naming
// the corrupt file, with the corruption on the lifecycle timeline.
func TestPersistentCorruptionFailsInstallNamingFile(t *testing.T) {
	fe := newTestFrontend(t)
	n := newComputeNode()
	fe.admit(n, "10.255.255.254", "compute-0-0", "compute")

	inj := faults.NewInjector(23, faults.Rule{Op: faults.OpHTTPPackage, Mode: faults.ModeCorrupt})
	cfg := fe.config()
	cfg.HTTP = corruptPackagesClient(fe, inj)
	cfg.DisableEKV = true
	cfg.FetchRetries = 2
	cfg.FetchBackoff = time.Millisecond
	cfg.Events = lifecycle.NewBus(256)

	_, err := Run(context.Background(), n, cfg)
	if err == nil {
		t.Fatal("install succeeded against a persistently corrupting server")
	}
	if !dist.IsTransient(err) {
		t.Errorf("corruption-exhausted error not transient: %v", err)
	}
	if !strings.Contains(err.Error(), ".rpm") {
		t.Errorf("error does not name the corrupt file: %v", err)
	}
	if n.State() != node.StateCrashed {
		t.Errorf("state = %s, want crashed", n.State())
	}
	corrupt := cfg.Events.Recent(lifecycle.Filter{Type: lifecycle.EventPackageCorrupt})
	if len(corrupt) < 2 {
		t.Errorf("package-corrupt events = %d, want one per failed attempt", len(corrupt))
	}
	if got := cfg.Events.Recent(lifecycle.Filter{Type: lifecycle.EventInstallComplete}); len(got) != 0 {
		t.Error("install-complete published despite corruption failure")
	}
}

// trickle delivers a response body in reads of at most a kilobyte, calling
// before ahead of each: a test sees the stream between any two packages.
type trickle struct {
	io.ReadCloser
	before func()
}

func (t *trickle) Read(p []byte) (int, error) {
	t.before()
	return t.ReadCloser.Read(p[:min(len(p), 1024)])
}

// waitAborted blocks until the node's install-aborted event is on the bus,
// bounded by the given context.Context.
func waitAborted(t *testing.T, ctx context.Context, bus *lifecycle.Bus, nodeName string) lifecycle.Event {
	t.Helper()
	e, err := bus.WaitFor(ctx, lifecycle.Filter{Node: nodeName, Type: lifecycle.EventInstallAborted})
	if err != nil {
		t.Fatalf("install-aborted event never published: %v", err)
	}
	return e
}

// TestRunCancelledMidPackageLoop is the cancellation contract: a context
// cancelled partway through package installation makes Run return promptly
// with context.Canceled, leaves the node crashed (well-defined failed
// state), and publishes install-aborted — not install-failed — on the bus.
func TestRunCancelledMidPackageLoop(t *testing.T) {
	fe := newTestFrontend(t)
	n := newComputeNode()
	fe.admit(n, "10.255.255.254", "compute-0-0", "compute")

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	inner := fe.srv.Client().Transport
	cfg := fe.config()
	cfg.Events = lifecycle.NewBus(256)
	cfg.HTTP = &http.Client{Transport: roundTripperFunc(func(r *http.Request) (*http.Response, error) {
		resp, err := inner.RoundTrip(r)
		if err == nil && isPackageStream(r) {
			// Hand the stream over a kilobyte at a time, and yank the plug
			// once the third package it delivered is on the disk.
			resp.Body = &trickle{ReadCloser: resp.Body, before: func() {
				if n.PackageDB().Len() >= 3 {
					cancel()
				}
			}}
		}
		return resp, err
	})}

	start := time.Now()
	_, err := Run(ctx, n, cfg)
	elapsed := time.Since(start)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled in the chain", err)
	}
	if elapsed > 5*time.Second {
		t.Errorf("cancelled Run took %s; cancellation should land promptly", elapsed)
	}
	if n.State() != node.StateCrashed {
		t.Errorf("state = %s, want crashed", n.State())
	}
	wctx, wcancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer wcancel()
	e := waitAborted(t, wctx, cfg.Events, "compute-0-0")
	if e.Phase != lifecycle.PhaseInstall || e.Source != "installer" {
		t.Errorf("aborted event = %+v", e)
	}
	if got := cfg.Events.Recent(lifecycle.Filter{Type: lifecycle.EventInstallFailed}); len(got) != 0 {
		t.Errorf("cancellation published install-failed events: %v", got)
	}
	// The phases that completed before the cancel are on the timeline.
	tl := cfg.Events.Timeline("compute-0-0")
	var types []lifecycle.EventType
	for _, ev := range tl {
		types = append(types, ev.Type)
	}
	want := []lifecycle.EventType{lifecycle.EventLease, lifecycle.EventKickstart, lifecycle.EventPartition, lifecycle.EventInstallAborted}
	if len(types) != len(want) {
		t.Fatalf("timeline = %v, want %v", types, want)
	}
	for i := range want {
		if types[i] != want[i] {
			t.Fatalf("timeline = %v, want %v", types, want)
		}
	}
}

// TestRunCancelledDuringDHCP proves cancellation interrupts the discovery
// retry loop — the phase a node with no binding would otherwise sit in for
// the full DHCPTimeout.
func TestRunCancelledDuringDHCP(t *testing.T) {
	fe := newTestFrontend(t)
	n := newComputeNode() // never admitted: DHCP stays silent
	cfg := fe.config()
	cfg.DHCPTimeout = 30 * time.Second
	cfg.Events = lifecycle.NewBus(64)

	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(20 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	_, err := Run(ctx, n, cfg)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Errorf("cancelled DHCP wait took %s", elapsed)
	}
	if n.State() != node.StateCrashed {
		t.Errorf("state = %s, want crashed", n.State())
	}
	// No name was ever bound, so the aborted event carries the MAC.
	if got := cfg.Events.Recent(lifecycle.Filter{Node: n.MAC(), Type: lifecycle.EventInstallAborted}); len(got) != 1 {
		t.Errorf("aborted-by-MAC events = %v", got)
	}
}

// TestInstallEventsOnFailure: a non-cancellation failure publishes
// install-failed, keeping the two terminal event types distinct.
func TestInstallEventsOnFailure(t *testing.T) {
	fe := newTestFrontend(t)
	for _, p := range fe.dist.Repo.Versions("glibc") {
		fe.dist.Repo.Remove(p.NVRA())
	}
	n := newComputeNode()
	fe.admit(n, "10.255.255.254", "compute-0-0", "compute")
	cfg := fe.config()
	cfg.Events = lifecycle.NewBus(64)
	if _, err := Run(context.Background(), n, cfg); err == nil {
		t.Fatal("install should have failed")
	}
	if got := cfg.Events.Recent(lifecycle.Filter{Node: "compute-0-0", Type: lifecycle.EventInstallFailed}); len(got) != 1 {
		t.Errorf("install-failed events = %v", got)
	}
	if got := cfg.Events.Recent(lifecycle.Filter{Type: lifecycle.EventInstallAborted}); len(got) != 0 {
		t.Errorf("spurious install-aborted events = %v", got)
	}
}

// TestInstallEventTimeline: a clean install publishes the full §6.1 phase
// sequence in order.
func TestInstallEventTimeline(t *testing.T) {
	fe := newTestFrontend(t)
	n := newComputeNode()
	fe.admit(n, "10.255.255.254", "compute-0-0", "compute")
	cfg := fe.config()
	cfg.Events = lifecycle.NewBus(64)
	if _, err := Run(context.Background(), n, cfg); err != nil {
		t.Fatal(err)
	}
	want := []lifecycle.EventType{
		lifecycle.EventLease, lifecycle.EventKickstart, lifecycle.EventPartition,
		lifecycle.EventPackages, lifecycle.EventPost, lifecycle.EventInstallComplete,
	}
	tl := cfg.Events.Timeline("compute-0-0")
	if len(tl) != len(want) {
		t.Fatalf("timeline has %d events (%v), want %d", len(tl), tl, len(want))
	}
	for i, ev := range tl {
		if ev.Type != want[i] {
			t.Fatalf("timeline[%d] = %s, want %s", i, ev.Type, want[i])
		}
		if ev.Phase != lifecycle.PhaseInstall || ev.Source != "installer" {
			t.Errorf("event %d mislabeled: %+v", i, ev)
		}
	}
}

// TestManifestFaultKeepsPeersTrustless is the verification-downgrade
// regression: with the relay tier on and a peer that serves self-consistent
// packages that are not the frontend's, one injected 500 on the frontend's
// manifest must cost a retry — not the digests. The lying peer is still
// caught on its first body and demoted, and nothing it served reaches the
// disk or the node's relay store.
func TestManifestFaultKeepsPeersTrustless(t *testing.T) {
	fe := newTestFrontend(t)
	n := newComputeNode()
	fe.admit(n, "10.255.255.254", "compute-0-0", "compute")

	liar := rpm.NewRepository("liar")
	for _, p := range fe.dist.Repo.All() {
		q := *p
		q.Digest = "" // restamped over the tampered payload: the body verifies against itself
		q.Files = append([]rpm.FileEntry{{Path: "/etc/lie", Mode: 0o644, Data: []byte("not what the frontend built")}}, p.Files...)
		liar.Add(&q)
	}
	peer := httptest.NewServer(dist.NewRepoServer(liar))
	defer peer.Close()
	fe.peers = []Source{{URL: peer.URL, Kind: SourcePeer, Node: "compute-0-9"}}

	// The first request on the package seam is the manifest.
	inj := faults.NewInjector(5, faults.Rule{Op: faults.OpHTTPPackage, Mode: faults.ModeError500, Count: 1})
	cfg := fe.config()
	cfg.HTTP = &http.Client{Transport: faults.NewTransport(inj, fe.srv.Client().Transport, nil)}
	cfg.DisableEKV = true
	cfg.FetchRetries = 2
	cfg.FetchBackoff = time.Millisecond
	cfg.Events = lifecycle.NewBus(512)
	cfg.Stats = &Stats{}
	cfg.FrontendURL = fe.srv.URL
	cfg.RelayStore = rpm.NewRepository("store")

	res, err := Run(context.Background(), n, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !inj.Exhausted() {
		t.Fatal("the manifest fault was never injected")
	}
	if got := cfg.Stats.FetchRetries.Load(); got != 1 {
		t.Errorf("fetch retries = %d, want 1 (the manifest)", got)
	}
	if demoted, corrupt := cfg.Stats.PeerDemotions.Load(), cfg.Stats.PackagesCorrupt.Load(); demoted != 1 || corrupt != 1 {
		t.Errorf("peer demotions = %d, corrupt bodies discarded = %d; want 1 and 1", demoted, corrupt)
	}
	events := cfg.Events.Recent(lifecycle.Filter{Type: lifecycle.EventRelayDemoted})
	if len(events) != 1 || !strings.Contains(events[0].Detail, "peer "+peer.URL) {
		t.Errorf("relay-demoted events = %+v, want one naming %s", events, peer.URL)
	}
	if got := cfg.Stats.PeerFetches.Load(); got != 0 {
		t.Errorf("%d bodies accepted from the lying peer", got)
	}
	if _, err := n.Disk().ReadFile("/etc/lie"); err == nil {
		t.Error("the lying peer's payload reached the disk")
	}
	if cfg.RelayStore.Len() != res.Packages {
		t.Errorf("relay store holds %d packages, installed %d", cfg.RelayStore.Len(), res.Packages)
	}
	for _, p := range cfg.RelayStore.All() {
		if want := fe.dist.Repo.Get(p.NVRA()); want == nil || p.Digest != want.Digest {
			t.Errorf("relay store holds %s with a digest the frontend never advertised", p.NVRA())
		}
	}
}

// TestInstallIsOneStream is the request budget of a fault-free install: one
// kickstart file, one manifest, one stream carrying every package, one facts
// report — and one relay lookup when the relay tier is on. Nothing is asked
// for per package.
func TestInstallIsOneStream(t *testing.T) {
	for _, relays := range []bool{false, true} {
		fe := newTestFrontend(t)
		n := newComputeNode()
		fe.admit(n, "10.255.255.254", "compute-0-0", "compute")
		cfg := fe.config()
		cfg.DisableEKV = true
		cfg.FrontendURL = fe.srv.URL
		want := map[string]int64{
			"GET /install/kickstart.cgi": 1,
			"GET /RedHat/base/manifest":  1,
			"POST /RedHat/RPMS/":         1,
			"POST /v1/facts":             1,
		}
		if relays {
			cfg.RelayStore = rpm.NewRepository("store")
			want["GET /v1/relays"] = 1
		}
		res, err := Run(context.Background(), n, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if res.Packages != 162 || n.PackageDB().Len() != 162 {
			t.Errorf("relays %v: installed %d packages (%d in the database), want 162", relays, res.Packages, n.PackageDB().Len())
		}
		var total int64
		fe.requests.Range(func(kind, count any) bool {
			got := count.(*atomic.Int64).Load()
			total += got
			if got != want[kind.(string)] {
				t.Errorf("relays %v: %d × %s, want %d", relays, got, kind, want[kind.(string)])
			}
			return true
		})
		if total != int64(len(want)) || total > 5 {
			t.Errorf("relays %v: an install made %d requests, want %d", relays, total, len(want))
		}
		if stats := fe.distSrv.Stats(); stats.BundleRequests != 1 || stats.PackageRequests != 162 || stats.ManifestRequests != 1 {
			t.Errorf("relays %v: serve stats %+v, want one manifest and one bundle of 162 bodies", relays, stats)
		}
		// The stream is read to its end, so its connection carries the
		// requests after it: this install's facts report, and the next's.
		n.ForceReinstall()
		if _, err := Run(context.Background(), n, cfg); err != nil {
			t.Fatal(err)
		}
		if got := fe.conns.Load(); got != 1 {
			t.Errorf("relays %v: two installs dialed %d connections, want 1", relays, got)
		}
	}
}

// TestStreamResumesWhereItStopped is the failure contract of the package
// stream. However a stream ends early — cut off, refused, damaged in
// transit, or served by a peer that lacks a package or lies about one — the
// packages it had verified stay installed and are never asked for again, the
// next stream asks for exactly the rest, the failure is charged where it
// belongs (a retry of the failed package's budget for the frontend; a
// demotion and nothing else for a peer), and every package is installed
// exactly once.
func TestStreamResumesWhereItStopped(t *testing.T) {
	// What a clean install asks for, in order, and each body's size on the
	// wire: the midpoint faults are placed by these.
	ref := newTestFrontend(t)
	var order []string
	{
		n := newComputeNode()
		ref.admit(n, "10.255.255.254", "compute-0-0", "compute")
		cfg := ref.config()
		cfg.DisableEKV = true
		cfg.HTTP = &http.Client{Transport: roundTripperFunc(func(r *http.Request) (*http.Response, error) {
			if isPackageStream(r) {
				ask, _ := io.ReadAll(r.Body)
				order = strings.Fields(string(ask))
				r.Body = io.NopCloser(strings.NewReader(string(ask)))
			}
			return ref.srv.Client().Transport.RoundTrip(r)
		})}
		if _, err := Run(context.Background(), n, cfg); err != nil || len(order) != 162 {
			t.Fatalf("reference install: %v, asked for %d packages", err, len(order))
		}
	}
	// The member a fault at the middle byte of a stream for order[from:]
	// lands in: the first whose frame (16-byte header, then the body) ends
	// past the midpoint.
	midpoint := func(from int) int {
		var ends []int
		end := 0
		for _, nvra := range order[from:] {
			end += 16 + len(ref.dist.Repo.Body(nvra))
			ends = append(ends, end)
		}
		for i, e := range ends {
			if e > end/2 {
				return from + i
			}
		}
		return len(order)
	}
	mid := midpoint(0)
	if mid < 40 || mid > 120 {
		t.Fatalf("midpoint of the stream falls in member %d of 162", mid)
	}

	const hole = 57 // the member a bad peer fails at
	cases := []struct {
		name string
		mode faults.Mode // injected once on the first stream; "" = none
		peer func(t *testing.T, good *rpm.Repository) *rpm.Repository
		// What must follow: the member the first stream stops at, whether
		// that costs the frontend's retry budget, whether it is a corrupt
		// body, and whether a peer was demoted for it.
		stopsAt          int
		retries, corrupt uint64
		demoted          bool
	}{
		{name: "cut off mid-stream", mode: faults.ModeTruncate, stopsAt: mid, retries: 1},
		{name: "refused with a 500", mode: faults.ModeError500, stopsAt: 0, retries: 1},
		{name: "a bit flipped at the midpoint", mode: faults.ModeCorrupt, stopsAt: mid, retries: 1, corrupt: 1},
		{name: "a peer that does not hold a member", stopsAt: hole, demoted: true,
			peer: func(t *testing.T, good *rpm.Repository) *rpm.Repository {
				partial := rpm.NewRepository("partial")
				for _, p := range good.All() {
					if p.NVRA() != order[hole] {
						partial.Add(p)
					}
				}
				return partial
			}},
		{name: "a peer that lies about a member", stopsAt: hole, corrupt: 1, demoted: true,
			peer: func(t *testing.T, good *rpm.Repository) *rpm.Repository {
				liar := rpm.NewRepository("liar")
				for _, p := range good.All() {
					if p.NVRA() == order[hole] {
						q := *p
						q.Digest = "" // restamped over the tampered payload: the body verifies against itself
						q.Files = append([]rpm.FileEntry{{Path: "/etc/lie", Mode: 0o644, Data: []byte("not what the frontend built")}}, p.Files...)
						p = &q
					}
					liar.Add(p)
				}
				return liar
			}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			fe := newTestFrontend(t)
			n := newComputeNode()
			fe.admit(n, "10.255.255.254", "compute-0-0", "compute")
			cfg := fe.config()
			cfg.DisableEKV = true
			cfg.FetchRetries = 2
			cfg.FetchBackoff = time.Millisecond
			cfg.Events = lifecycle.NewBus(512)
			cfg.Stats = &Stats{}
			var peerSrv *dist.Server
			var peerURL string
			if tc.peer != nil {
				peerSrv = dist.NewRepoServer(tc.peer(t, fe.dist.Repo))
				peer := httptest.NewServer(peerSrv)
				defer peer.Close()
				peerURL = peer.URL
				fe.peers = []Source{{URL: peer.URL, Kind: SourcePeer, Node: "compute-0-9"}}
				cfg.FrontendURL = fe.srv.URL
				cfg.RelayStore = rpm.NewRepository("store")
			}
			// Every stream request, as asked: of whom, and for what.
			type ask struct {
				host  string
				nvras []string
			}
			var asks []ask
			inj := faults.NewInjector(1)
			if tc.mode != "" {
				inj.AddRule(faults.Rule{Op: faults.OpHTTPPackage, Mode: tc.mode, Count: 1})
			}
			clean := fe.srv.Client().Transport
			faulty := faults.NewTransport(inj, clean, nil)
			cfg.HTTP = &http.Client{Transport: roundTripperFunc(func(r *http.Request) (*http.Response, error) {
				if !isPackageStream(r) {
					return clean.RoundTrip(r)
				}
				body, _ := io.ReadAll(r.Body)
				asks = append(asks, ask{"http://" + r.URL.Host, strings.Fields(string(body))})
				r.Body = io.NopCloser(strings.NewReader(string(body)))
				return faulty.RoundTrip(r)
			})}

			res, err := Run(context.Background(), n, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if !inj.Exhausted() {
				t.Error("the fault was never injected")
			}
			s := cfg.Stats
			if res.Packages != 162 || n.PackageDB().Len() != 162 || s.PeerFetches.Load()+s.FrontendFetches.Load() != 162 {
				t.Errorf("installed %d packages, %d in the database, %d verified bodies accepted; want 162 of each",
					res.Packages, n.PackageDB().Len(), s.PeerFetches.Load()+s.FrontendFetches.Load())
			}

			// Two streams: everything, then exactly what the first did not
			// deliver — of the frontend, whoever was asked first.
			first := fe.srv.URL + "/install/dist"
			if tc.peer != nil {
				first = peerURL
			}
			if len(asks) != 2 || !strings.HasPrefix(first, asks[0].host) || !strings.HasPrefix(fe.srv.URL, asks[1].host) ||
				!slices.Equal(asks[0].nvras, order) || !slices.Equal(asks[1].nvras, order[tc.stopsAt:]) {
				t.Errorf("%d streams; the second asked %s for %d packages, want the frontend for the %d from %s on",
					len(asks), asks[len(asks)-1].host, len(asks[len(asks)-1].nvras), 162-tc.stopsAt, order[tc.stopsAt])
			}
			// Bodies served: the frontend's counter is exact (its streams run
			// to the end); a peer dropped mid-stream may have written more
			// than was read, but never has fewer than were accepted from it.
			fromFrontend := uint64(162)
			served := uint64(162 + 162 - tc.stopsAt)
			if tc.mode == faults.ModeError500 {
				served = 162 // the refusal never reached the server
			}
			if tc.peer != nil {
				fromFrontend, served = uint64(162-tc.stopsAt), uint64(162-tc.stopsAt)
				if got := peerSrv.Stats().PackageRequests; got < uint64(tc.stopsAt) {
					t.Errorf("peer served %d bodies, accepted %d", got, tc.stopsAt)
				}
			}
			if got := fe.distSrv.Stats().PackageRequests; got != served {
				t.Errorf("frontend served %d bodies, want %d", got, served)
			}
			if got, peer := s.FrontendFetches.Load(), s.PeerFetches.Load(); got != fromFrontend || peer != 162-fromFrontend {
				t.Errorf("accepted %d bodies from the frontend and %d from the peer, want %d and %d", got, peer, fromFrontend, 162-fromFrontend)
			}

			// The failure is charged where it belongs.
			if got := s.FetchRetries.Load(); got != tc.retries {
				t.Errorf("fetch retries = %d, want %d", got, tc.retries)
			}
			if got := s.PackagesCorrupt.Load(); got != tc.corrupt {
				t.Errorf("corrupt bodies discarded = %d, want %d", got, tc.corrupt)
			}
			corrupt := cfg.Events.Recent(lifecycle.Filter{Type: lifecycle.EventPackageCorrupt})
			if len(corrupt) != int(tc.corrupt) {
				t.Errorf("package-corrupt events = %+v, want %d", corrupt, tc.corrupt)
			}
			for _, e := range corrupt {
				source := SourceFrontend + " " + first
				if tc.peer != nil {
					source = SourcePeer + " " + peerURL
				}
				if !strings.Contains(e.Detail, order[tc.stopsAt]+".rpm") || !strings.Contains(e.Detail, "source: "+source) {
					t.Errorf("package-corrupt event %q does not name %s.rpm and %s", e.Detail, order[tc.stopsAt], source)
				}
			}
			demoted := cfg.Events.Recent(lifecycle.Filter{Type: lifecycle.EventRelayDemoted})
			if got := s.PeerDemotions.Load(); (got == 1) != tc.demoted || len(demoted) != int(got) {
				t.Errorf("peer demotions = %d with events %+v, want demoted = %v", got, demoted, tc.demoted)
			}
			for _, e := range demoted {
				if !strings.Contains(e.Detail, "peer "+peerURL) || !strings.Contains(e.Detail, order[tc.stopsAt]+".rpm") {
					t.Errorf("relay-demoted event %q does not name the peer and %s.rpm", e.Detail, order[tc.stopsAt])
				}
			}

			// Nothing a source made up reached the disk or the relay store.
			if _, err := n.Disk().ReadFile("/etc/lie"); err == nil {
				t.Error("a lying peer's payload reached the disk")
			}
			if cfg.RelayStore != nil {
				if cfg.RelayStore.Len() != 162 {
					t.Errorf("relay store holds %d packages, want 162", cfg.RelayStore.Len())
				}
				for _, p := range cfg.RelayStore.All() {
					if want := fe.dist.Repo.Get(p.NVRA()); want == nil || p.Digest != want.Digest {
						t.Errorf("relay store holds %s with a digest the frontend never advertised", p.NVRA())
					}
				}
			}
		})
	}
}

// TestBudgetBelongsToTheFailedPackage: a source that damages every stream it
// sends still delivers what comes before the damage, so each retry starts
// further on under a fresh budget — until the stream is one package long and
// the damage is all there is. Only then does a budget run out, and the error
// names that package.
func TestBudgetBelongsToTheFailedPackage(t *testing.T) {
	fe := newTestFrontend(t)
	n := newComputeNode()
	fe.admit(n, "10.255.255.254", "compute-0-0", "compute")
	inj := faults.NewInjector(23, faults.Rule{Op: faults.OpHTTPPackage, Mode: faults.ModeCorrupt})
	cfg := fe.config()
	cfg.HTTP = corruptPackagesClient(fe, inj)
	cfg.DisableEKV = true
	cfg.FetchRetries = 2
	cfg.FetchBackoff = time.Millisecond
	cfg.Stats = &Stats{}

	_, err := Run(context.Background(), n, cfg)
	if err == nil || !dist.IsTransient(err) || !errors.Is(err, dist.ErrCorruptBody) || !strings.Contains(err.Error(), "after 3 attempts") {
		t.Fatalf("err = %v, want a corrupt body's exhausted budget", err)
	}
	// 162 packages halve to one in eight streams; the last package takes the
	// three attempts of its own budget. Every failure but the last was a retry.
	if got := n.PackageDB().Len(); got != 161 {
		t.Errorf("%d packages installed before the budget ran out, want all but the last", got)
	}
	if streams, corrupt, retries := fe.distSrv.Stats().BundleRequests, cfg.Stats.PackagesCorrupt.Load(), cfg.Stats.FetchRetries.Load(); streams != corrupt || retries != corrupt-1 || streams < 8 {
		t.Errorf("%d streams, %d corrupt bodies, %d retries; want every stream corrupt and every failure but the last retried", streams, corrupt, retries)
	}
}

// TestReinstallStartsAFreshInstallLog: the install log is the transcript of
// the install that built the node. However many times the node has been
// reinstalled, InstallLog() and /root/install.log are what one install
// leaves — a reinstalled node is the node a fresh install produces.
func TestReinstallStartsAFreshInstallLog(t *testing.T) {
	fe := newTestFrontend(t)
	n := newComputeNode()
	fe.admit(n, "10.255.255.254", "compute-0-0", "compute")
	cfg := fe.config()
	cfg.DisableEKV = true
	var lines int
	var file string
	for install := 1; install <= 3; install++ {
		n.ForceReinstall()
		if _, err := Run(context.Background(), n, cfg); err != nil {
			t.Fatal(err)
		}
		onDisk, err := n.Disk().ReadFile("/root/install.log")
		if err != nil {
			t.Fatal(err)
		}
		if install == 1 {
			lines, file = len(n.InstallLog()), string(onDisk)
			if lines == 0 || file != strings.Join(n.InstallLog(), "\n")+"\n" {
				t.Fatalf("first install: %d log lines, %d bytes on disk", lines, len(file))
			}
			continue
		}
		if got := len(n.InstallLog()); got != lines || string(onDisk) != file {
			t.Errorf("install %d: %d log lines and %d bytes on disk, the first left %d and %d",
				install, got, len(onDisk), lines, len(file))
		}
	}
}
