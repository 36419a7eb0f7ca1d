package node

import (
	"bytes"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"rocks/internal/hardware"
	"rocks/internal/rpm"
)

func testNode() *Node {
	macs := hardware.NewMACAllocator()
	return New(hardware.PIIICompute(macs, 733))
}

func TestDiskPartitionRouting(t *testing.T) {
	d := NewDisk()
	d.Format("/")
	d.Format("/state/partition1")
	if err := d.WriteFile("/etc/hosts", []byte("hosts"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := d.WriteFile("/state/partition1/data.bin", []byte("persist"), 0o644); err != nil {
		t.Fatal(err)
	}
	root, _ := d.Partition("/")
	state, _ := d.Partition("/state/partition1")
	if len(root.files) != 1 || len(state.files) != 1 {
		t.Errorf("routing wrong: root=%d state=%d", len(root.files), len(state.files))
	}
	got, err := d.ReadFile("/state/partition1/data.bin")
	if err != nil || string(got) != "persist" {
		t.Errorf("ReadFile = %q, %v", got, err)
	}
}

// TestDiskRoutingRespectsMountBoundaries: /state/partition10/x is never on
// /state/partition1 — whichever order the partitions were formatted in, and
// after RemoveAll and a re-Format — and a path falls to the longest
// formatted mountpoint above it.
func TestDiskRoutingRespectsMountBoundaries(t *testing.T) {
	d := NewDisk()
	d.Format("/state/partition1")
	refuse := func(path string) {
		t.Helper()
		if err := d.WriteFile(path, []byte("x"), 0); err == nil {
			t.Errorf("write to %s accepted with no partition holding it", path)
		}
	}
	on := func(path, mount string) {
		t.Helper()
		if err := d.WriteFile(path, []byte("x"), 0); err != nil {
			t.Fatal(err)
		}
		if p, _ := d.Partition(mount); p == nil || p.files[path].Data == nil {
			t.Errorf("%s is not on %s", path, mount)
		}
	}
	refuse("/state/partition10/x")
	on("/state/partition1/x", "/state/partition1")
	d.RemoveAll()
	refuse("/state/partition1/x")
	d.Format("/state/partition1")
	refuse("/state/partition10/x")
	on("/state/partition1", "/state/partition1")
	d.Format("/")
	d.Format("/state")
	on("/state/partition10/x", "/state")
	on("/state/partition1/x", "/state/partition1")
	on("/etc/hosts", "/")
	refuse("etc/hosts")
}

// TestUnpackKeepsThePackagesBytes: the disk keeps an unpacked package's
// bytes rather than a copy, so nothing done to the disk afterwards — an
// append, a rewrite at the same length, a format — may change them. The two
// files are pieces of one array, as a decoded package's are, so an append
// into the first one's spare capacity would run over the second.
func TestUnpackKeepsThePackagesBytes(t *testing.T) {
	payload := []byte("127.0.0.1 localhost\nwelcome\n")
	pkg := rpm.New("setup", rpm.Version{Version: "1", Release: "1"}, rpm.ArchNoarch,
		rpm.FileEntry{Path: "/etc/hosts", Mode: 0o644, Data: payload[:20]},
		rpm.FileEntry{Path: "/etc/motd", Data: payload[20:]},
	)
	want := pkg.Bytes()
	d := NewDisk()
	d.Format("/")
	if err := d.Unpack(pkg.Files); err != nil {
		t.Fatal(err)
	}
	if mode, ok := d.Stat("/etc/motd"); !ok || mode != 0o644 {
		t.Errorf("Stat(/etc/motd) = %#o, %v", mode, ok)
	}
	root, _ := d.Partition("/")
	if kept := root.unpacked["/etc/hosts"].Data; len(kept) == 0 || &kept[0] != &payload[0] {
		t.Error("Unpack stored a copy of the package's bytes, not the bytes")
	}
	if err := d.AppendFile("/etc/hosts", []byte("::1\n")); err != nil {
		t.Fatal(err)
	}
	if err := d.WriteFile("/etc/motd", []byte("#######\n"), 0); err != nil {
		t.Fatal(err)
	}
	if got, _ := d.ReadFile("/etc/hosts"); string(got) != "127.0.0.1 localhost\n::1\n" {
		t.Errorf("/etc/hosts reads %q", got)
	}
	if got, _ := d.ReadFile("/etc/motd"); string(got) != "#######\n" {
		t.Errorf("/etc/motd reads %q", got)
	}
	d.Format("/")
	if !bytes.Equal(pkg.Bytes(), want) {
		t.Errorf("writes to the disk changed the package it unpacked: payload now %q", payload)
	}
	d.RemoveAll()
	if err := d.Unpack(pkg.Files); err == nil || !strings.Contains(err.Error(), "/etc/hosts") {
		t.Errorf("Unpack with no partition holding its first path: %v", err)
	}
}

func TestDiskRootReformatPreservesStatePartition(t *testing.T) {
	// The §6.3 invariant: "all non-root partitions are preserved over
	// reinstalls, and therefore, can be used as persistent storage."
	d := NewDisk()
	d.Format("/")
	d.Format("/state/partition1")
	d.WriteFile("/etc/passwd", []byte("root"), 0o644)
	d.WriteFile("/state/partition1/results.dat", []byte("experiment output"), 0o644)

	d.Format("/")                          // reinstall wipes root...
	d.EnsurePartition("/state/partition1") // ...and only ensures the rest

	if _, err := d.ReadFile("/etc/passwd"); err == nil {
		t.Error("root file survived a reformat")
	}
	got, err := d.ReadFile("/state/partition1/results.dat")
	if err != nil || string(got) != "experiment output" {
		t.Errorf("persistent file lost: %q, %v", got, err)
	}
	root, _ := d.Partition("/")
	state, _ := d.Partition("/state/partition1")
	if root.Generation != 2 || state.Generation != 1 {
		t.Errorf("generations = %d, %d; want 2, 1", root.Generation, state.Generation)
	}
}

func TestDiskErrors(t *testing.T) {
	d := NewDisk()
	if err := d.WriteFile("relative/path", nil, 0); err == nil {
		t.Error("relative path accepted")
	}
	if err := d.WriteFile("/no/partition", nil, 0); err == nil {
		t.Error("write with no formatted partition accepted")
	}
	if _, err := d.ReadFile("/nope"); err == nil {
		t.Error("read with no partition accepted")
	}
	d.Format("/")
	if _, err := d.ReadFile("/missing"); err == nil || !strings.Contains(err.Error(), "no such file") {
		t.Errorf("missing file error = %v", err)
	}
}

func TestDiskAppendAndList(t *testing.T) {
	d := NewDisk()
	d.Format("/")
	d.AppendFile("/etc/fstab", []byte("line1\n"))
	d.AppendFile("/etc/fstab", []byte("line2\n"))
	got, _ := d.ReadFile("/etc/fstab")
	if string(got) != "line1\nline2\n" {
		t.Errorf("append = %q", got)
	}
	d.WriteFile("/etc/hosts", []byte("h"), 0)
	d.WriteFile("/usr/bin/gcc", []byte("b"), 0o755)
	if got := d.List("/etc/"); len(got) != 2 || got[0] != "/etc/fstab" {
		t.Errorf("List = %v", got)
	}
	if mode, ok := d.Stat("/usr/bin/gcc"); !ok || mode != 0o755 {
		t.Errorf("Stat = %o, %v", mode, ok)
	}
}

func TestDiskBootable(t *testing.T) {
	d := NewDisk()
	if d.Bootable() {
		t.Error("blank disk bootable")
	}
	d.Format("/")
	if d.Bootable() {
		t.Error("kernel-less disk bootable")
	}
	d.WriteFile("/boot/vmlinuz", []byte("kernel"), 0o755)
	if !d.Bootable() {
		t.Error("installed disk not bootable")
	}
}

func TestNodeNeedsInstallLifecycle(t *testing.T) {
	n := testNode()
	if !n.NeedsInstall() {
		t.Error("factory-fresh node must need installation")
	}
	n.Disk().Format("/")
	n.Disk().WriteFile("/boot/vmlinuz", []byte("k"), 0o755)
	n.ClearReinstall()
	if n.NeedsInstall() {
		t.Error("installed node should boot from disk")
	}
	n.ForceReinstall()
	if !n.NeedsInstall() {
		t.Error("ForceReinstall ignored")
	}
}

func TestNodeExecRequiresUp(t *testing.T) {
	n := testNode()
	if _, err := n.Exec("hostname"); err == nil {
		t.Error("Exec on an off node must fail")
	}
	n.SetState(StateUp)
	n.SetName("compute-0-0")
	out, err := n.Exec("hostname")
	if err != nil || out != "compute-0-0\n" {
		t.Errorf("hostname = %q, %v", out, err)
	}
}

func TestNodeExecCommands(t *testing.T) {
	n := testNode()
	n.SetState(StateUp)
	n.SetName("compute-0-0")
	n.SetKernelVersion("2.4.9-31")
	n.PackageDB().Install(&rpm.Metadata{Name: "glibc",
		Version: rpm.Version{Version: "2.2.4", Release: "24"}, Arch: "i386"})

	out, err := n.Exec("uname -r")
	if err != nil || !strings.Contains(out, "2.4.9-31") {
		t.Errorf("uname = %q, %v", out, err)
	}
	out, err = n.Exec("rpm -qa")
	if err != nil || !strings.Contains(out, "glibc-2.2.4-24.i386") {
		t.Errorf("rpm -qa = %q, %v", out, err)
	}
	out, err = n.Exec("rpm -q glibc")
	if err != nil || !strings.HasPrefix(out, "glibc-") {
		t.Errorf("rpm -q = %q, %v", out, err)
	}
	if _, err := n.Exec("rpm -q nothere"); err == nil {
		t.Error("rpm -q for missing package should fail")
	}
	if _, err := n.Exec("made-up-command"); err == nil {
		t.Error("unknown command should fail")
	}
	if _, err := n.Exec(""); err == nil {
		t.Error("empty command should fail")
	}
}

func TestNodeProcessesAndKill(t *testing.T) {
	n := testNode()
	if _, err := n.StartProcess("bad-job"); err == nil {
		t.Error("process on down node should fail")
	}
	n.SetState(StateUp)
	n.SetName("compute-0-0")
	p1, _ := n.StartProcess("bad-job")
	p2, _ := n.StartProcess("bad-job")
	p3, _ := n.StartProcess("good-job")
	if p1 == p2 || p2 == p3 {
		t.Error("PIDs must be unique")
	}
	out, _ := n.Exec("ps")
	if strings.Count(out, "bad-job") != 2 || strings.Count(out, "good-job") != 1 {
		t.Errorf("ps = %q", out)
	}
	out, err := n.Exec("kill bad-job")
	if err != nil || out != "killed 2\n" {
		t.Errorf("kill = %q, %v", out, err)
	}
	if len(n.Processes()) != 1 {
		t.Errorf("processes after kill = %v", n.Processes())
	}
}

func TestNodeShootSelfTriggersRebootHook(t *testing.T) {
	n := testNode()
	n.SetState(StateUp)
	n.SetName("compute-0-0")
	rebooted := make(chan struct{})
	n.OnReboot = func() { close(rebooted) }
	n.StartProcess("job")

	out, err := n.Exec("/boot/kickstart/cluster-kickstart")
	if err != nil || !strings.Contains(out, "installation") {
		t.Fatalf("shoot = %q, %v", out, err)
	}
	select {
	case <-rebooted:
	case <-time.After(2 * time.Second):
		t.Fatal("reboot hook never fired")
	}
	if !n.NeedsInstall() {
		t.Error("shoot-self must force reinstallation")
	}
	if len(n.Processes()) != 0 {
		t.Error("processes survived the reboot")
	}
	if n.State() != StateBooting {
		t.Errorf("state = %s, want booting", n.State())
	}
}

func TestNodeServiceTracking(t *testing.T) {
	n := testNode()
	n.SetServices([]string{"sshd", "pbs-mom", "ypbind"})
	if !n.HasService("pbs-mom") || n.HasService("httpd") {
		t.Error("service lookup wrong")
	}
	got := n.Services()
	if len(got) != 3 || got[0] != "pbs-mom" {
		t.Errorf("Services = %v", got)
	}
}

func TestMyrinetOperationalInvariant(t *testing.T) {
	n := testNode()
	n.SetKernelVersion("2.4.9-31")
	if n.MyrinetOperational() {
		t.Error("driver never built but reported operational")
	}
	n.SetGMDriverFor("2.4.9-31")
	if !n.MyrinetOperational() {
		t.Error("matching driver reported non-operational")
	}
	// A kernel update without a driver rebuild must break Myrinet — the
	// exact version-skew problem §6.3's source-rebuild strategy solves.
	n.SetKernelVersion("2.4.9-34")
	if n.MyrinetOperational() {
		t.Error("stale driver loaded against a newer kernel")
	}
}

func TestNodeConcurrentAccess(t *testing.T) {
	n := testNode()
	n.SetState(StateUp)
	n.SetName("c0")
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 50; j++ {
				n.StartProcess("job")
				n.Exec("ps")
				n.Logf("iteration %d", j)
			}
		}()
	}
	wg.Wait()
	if len(n.Processes()) != 400 {
		t.Errorf("processes = %d, want 400", len(n.Processes()))
	}
}

func TestPowerOff(t *testing.T) {
	n := testNode()
	n.SetState(StateUp)
	n.StartProcess("job")
	n.PowerOff()
	if n.State() != StateOff || len(n.Processes()) != 0 {
		t.Error("PowerOff incomplete")
	}
}

func TestNodeExecDfLsService(t *testing.T) {
	n := testNode()
	n.SetState(StateUp)
	n.SetName("compute-0-0")
	n.Disk().Format("/")
	n.Disk().Format("/state/partition1")
	n.Disk().WriteFile("/etc/hosts", []byte("h"), 0o644)
	n.SetServices([]string{"sshd"})

	out, err := n.Exec("df")
	if err != nil || !strings.Contains(out, "/ 1 files") || !strings.Contains(out, "/state/partition1 0 files") {
		t.Errorf("df = %q, %v", out, err)
	}
	out, err = n.Exec("ls /etc/")
	if err != nil || out != "/etc/hosts\n" {
		t.Errorf("ls = %q, %v", out, err)
	}
	if _, err := n.Exec("ls"); err == nil {
		t.Error("ls without path accepted")
	}
	out, err = n.Exec("service sshd status")
	if err != nil || !strings.Contains(out, "running") {
		t.Errorf("service = %q, %v", out, err)
	}
	if _, err := n.Exec("service httpd status"); err == nil {
		t.Error("missing service reported running")
	}
	if _, err := n.Exec("service httpd"); err == nil {
		t.Error("malformed service command accepted")
	}
}

func TestNodeAccessors(t *testing.T) {
	n := testNode()
	n.SetIP("10.0.0.5")
	if n.IP() != "10.0.0.5" || n.MAC() == "" {
		t.Error("IP/MAC accessors")
	}
	n.SetEKVAddr("127.0.0.1:9999")
	if n.EKVAddr() != "127.0.0.1:9999" {
		t.Error("EKV accessor")
	}
	n.Logf("line %d", 1)
	if len(n.InstallLog()) != 1 {
		t.Error("InstallLog")
	}
	n.MarkInstalled()
	if n.Installs() != 1 {
		t.Error("Installs")
	}
	n.SetGMDriverFor("2.4.9")
	if n.GMDriverFor() != "2.4.9" {
		t.Error("GMDriverFor")
	}
	n.PackageDB().Install(&rpm.Metadata{Name: "x", Version: rpm.Version{Version: "1", Release: "1"}})
	n.ResetPackageDB()
	if n.PackageDB().Len() != 0 {
		t.Error("ResetPackageDB")
	}
}

func TestDiskRemoveAllAndEnsure(t *testing.T) {
	d := NewDisk()
	d.Format("/")
	d.WriteFile("/a", []byte("x"), 0)
	d.RemoveAll()
	if len(d.Parts) != 0 {
		t.Error("RemoveAll left partitions")
	}
	p := d.EnsurePartition("/export")
	if p.Formatted {
		t.Error("EnsurePartition should not format")
	}
	if q := d.EnsurePartition("/export"); q != p {
		t.Error("EnsurePartition should be idempotent")
	}
}

// TestWatchEKVIsToldOnce: a watcher hears of the next eKV port from inside
// SetEKVAddr, not of the port closing, and not of the install after.
func TestWatchEKVIsToldOnce(t *testing.T) {
	n := testNode()
	var told []string
	n.WatchEKV(func(addr string) { told = append(told, addr+" while EKVAddr="+n.EKVAddr()) })
	n.SetEKVAddr("")
	n.SetEKVAddr("127.0.0.1:1")
	n.SetEKVAddr("")
	n.SetEKVAddr("127.0.0.1:2")
	if want := []string{"127.0.0.1:1 while EKVAddr=127.0.0.1:1"}; !reflect.DeepEqual(told, want) {
		t.Errorf("watcher told %q, want %q", told, want)
	}
	n.WatchEKV(func(string) { t.Error("a withdrawn watcher was told") })
	n.WatchEKV(nil)
	n.SetEKVAddr("127.0.0.1:3")
}
