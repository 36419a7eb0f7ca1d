package node

import (
	"fmt"
	"sort"
	"strings"
	"sync"

	"rocks/internal/hardware"
	"rocks/internal/rpm"
)

// State is a node's externally visible condition.
type State string

// Node states. The paper's administrator view: a node is either serving
// jobs (Up), dark during power-on/boot (Booting), visible through eKV
// (Installing), or Off.
const (
	StateOff        State = "off"
	StateBooting    State = "booting"
	StateInstalling State = "installing"
	StateUp         State = "up"
	StateCrashed    State = "crashed" // hardware error: needs the crash cart
)

// Process is one entry in the node's process table.
type Process struct {
	PID  int
	Name string
}

// Node is one simulated machine.
type Node struct {
	HW hardware.Profile

	mu            sync.Mutex
	name          string
	ip            string
	state         State
	disk          *Disk
	db            *rpm.Database
	forceInstall  bool
	kernelVersion string
	gmDriverFor   string // kernel version the Myrinet driver was built against
	services      []string
	processes     map[int]*Process
	nextPID       int
	installLog    []string
	installs      int // how many times this node has been (re)installed
	ekvAddr       string
	ekvWatch      func(addr string) // told the next eKV address, once

	// OnReboot, when set, is invoked (in a new goroutine) when a command
	// executed on the node requests a reboot — shoot-node's
	// /boot/kickstart/cluster-kickstart path. The cluster orchestrator
	// installs this hook to run the boot cycle.
	OnReboot func()
}

// New creates a powered-off node with a blank disk.
func New(hw hardware.Profile) *Node {
	return &Node{
		HW:        hw,
		state:     StateOff,
		disk:      NewDisk(),
		db:        rpm.NewDatabase(),
		processes: make(map[int]*Process),
		nextPID:   100,
	}
}

// Disk returns the node's disk.
func (n *Node) Disk() *Disk { return n.disk }

// PackageDB returns the installed-package database.
func (n *Node) PackageDB() *rpm.Database {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.db
}

// ResetPackageDB clears the package database (start of a reinstall), giving
// the new one room for what the old one held.
func (n *Node) ResetPackageDB() {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.db = n.db.Successor()
}

// State returns the node's current state.
func (n *Node) State() State {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.state
}

// SetState transitions the node.
func (n *Node) SetState(s State) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.state = s
}

// Name returns the hostname assigned by DHCP/insert-ethers ("" before
// discovery).
func (n *Node) Name() string {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.name
}

// SetName records the hostname.
func (n *Node) SetName(name string) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.name = name
}

// IP returns the node's private address.
func (n *Node) IP() string {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.ip
}

// SetIP records the DHCP-assigned address.
func (n *Node) SetIP(ip string) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.ip = ip
}

// MAC returns the management Ethernet address.
func (n *Node) MAC() string { return n.HW.EthernetMAC() }

// ForceReinstall marks the node to reinstall on its next boot. Both
// shoot-node and a hard power cycle set this (§4: "A hard power cycle on a
// Rocks compute node forces the node to reinstall itself").
func (n *Node) ForceReinstall() {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.forceInstall = true
}

// NeedsInstall reports whether the next boot must run the installer:
// either a reinstall was forced or the disk holds no bootable OS.
func (n *Node) NeedsInstall() bool {
	n.mu.Lock()
	force := n.forceInstall
	n.mu.Unlock()
	return force || !n.disk.Bootable()
}

// ClearReinstall resets the force flag (the installer calls this once it
// has committed to running).
func (n *Node) ClearReinstall() {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.forceInstall = false
}

// KernelVersion returns the running kernel's version string.
func (n *Node) KernelVersion() string {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.kernelVersion
}

// SetKernelVersion records the installed kernel.
func (n *Node) SetKernelVersion(v string) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.kernelVersion = v
}

// GMDriverFor returns the kernel version the Myrinet driver was compiled
// against ("" if never built). The Linux kernel "will only load modules
// that were compiled for that particular kernel version" (§6.3); tests
// assert this invariant after kernel updates.
func (n *Node) GMDriverFor() string {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.gmDriverFor
}

// SetGMDriverFor records a completed Myrinet driver build.
func (n *Node) SetGMDriverFor(kernel string) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.gmDriverFor = kernel
}

// MyrinetOperational reports whether the node's Myrinet interface can come
// up: the driver must exist and match the running kernel exactly.
func (n *Node) MyrinetOperational() bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.HW.HasMyrinet() && n.gmDriverFor != "" && n.gmDriverFor == n.kernelVersion
}

// SetServices records the services the installed profile enables.
func (n *Node) SetServices(svcs []string) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.services = append([]string(nil), svcs...)
}

// Services returns the enabled service names, sorted.
func (n *Node) Services() []string {
	n.mu.Lock()
	defer n.mu.Unlock()
	out := append([]string(nil), n.services...)
	sort.Strings(out)
	return out
}

// HasService reports whether a service is enabled.
func (n *Node) HasService(name string) bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	for _, s := range n.services {
		if s == name {
			return true
		}
	}
	return false
}

// Logf appends a line to the node's install log (also mirrored into
// /root/install.log on disk by the installer).
func (n *Node) Logf(format string, args ...interface{}) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.installLog = append(n.installLog, fmt.Sprintf(format, args...))
}

// ResetInstallLog starts a fresh log (start of an install): the log is the
// transcript of the install that built the node, not of every one before it.
func (n *Node) ResetInstallLog() {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.installLog = nil
}

// InstallLog returns the log lines of the current or latest install.
func (n *Node) InstallLog() []string {
	n.mu.Lock()
	defer n.mu.Unlock()
	return append([]string(nil), n.installLog...)
}

// MarkInstalled bumps the install counter.
func (n *Node) MarkInstalled() {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.installs++
}

// Installs reports how many times the node has been installed.
func (n *Node) Installs() int {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.installs
}

// SetEKVAddr records the node's current eKV endpoint ("" when not
// installing) and hands a new one to WatchEKV's watcher before it returns:
// the installer calls it, so the installation waits for the watcher.
func (n *Node) SetEKVAddr(addr string) {
	n.mu.Lock()
	n.ekvAddr = addr
	var watch func(string)
	if addr != "" {
		watch, n.ekvWatch = n.ekvWatch, nil
	}
	n.mu.Unlock()
	if watch != nil {
		watch(addr)
	}
}

// WatchEKV registers fn to be called once, on the installer's goroutine, with
// the address of the eKV port the node's next installation opens: registered
// before the node is shot, it cannot miss an installation however short. A
// nil fn withdraws the watcher.
func (n *Node) WatchEKV(fn func(addr string)) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.ekvWatch = fn
}

// EKVAddr returns the eKV endpoint to attach to during installation.
func (n *Node) EKVAddr() string {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.ekvAddr
}

// StartProcess launches a named process (a job, or a runaway) and returns
// its PID. Only an Up node runs processes.
func (n *Node) StartProcess(name string) (int, error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.state != StateUp {
		return 0, fmt.Errorf("node %s: cannot start process: state is %s", n.name, n.state)
	}
	n.nextPID++
	p := &Process{PID: n.nextPID, Name: name}
	n.processes[p.PID] = p
	return p.PID, nil
}

// Processes lists running processes sorted by PID.
func (n *Node) Processes() []Process {
	n.mu.Lock()
	defer n.mu.Unlock()
	out := make([]Process, 0, len(n.processes))
	for _, p := range n.processes {
		out = append(out, *p)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].PID < out[j].PID })
	return out
}

// killAll removes processes by name, returning how many died.
func (n *Node) killAll(name string) int {
	n.mu.Lock()
	defer n.mu.Unlock()
	killed := 0
	for pid, p := range n.processes {
		if p.Name == name {
			delete(n.processes, pid)
			killed++
		}
	}
	return killed
}

// clearProcesses empties the process table (reboot/reinstall).
func (n *Node) clearProcesses() {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.processes = make(map[int]*Process)
}

// PowerOff halts the node immediately.
func (n *Node) PowerOff() {
	n.clearProcesses()
	n.SetState(StateOff)
}

// ErrNodeDown is returned when a command is sent to a node that is not up
// — the "was node X offline?" failure mode of §3.2.
var ErrNodeDown = fmt.Errorf("node is not up")

// Exec runs a command on the node the way rexec/ssh would, returning its
// output. The supported command set is what the Rocks tools invoke.
func (n *Node) Exec(cmd string) (string, error) {
	if n.State() != StateUp {
		return "", fmt.Errorf("%s: %w (state %s)", n.Name(), ErrNodeDown, n.State())
	}
	fields := strings.Fields(cmd)
	if len(fields) == 0 {
		return "", fmt.Errorf("empty command")
	}
	switch fields[0] {
	case "hostname":
		return n.Name() + "\n", nil
	case "uname":
		return "Linux " + n.Name() + " " + n.KernelVersion() + "\n", nil
	case "rpm":
		if len(fields) >= 2 && fields[1] == "-qa" {
			return n.PackageDB().Manifest(), nil
		}
		if len(fields) >= 3 && fields[1] == "-q" {
			if m, ok := n.PackageDB().Query(fields[2]); ok {
				return m.NVRA() + "\n", nil
			}
			return "", fmt.Errorf("package %s is not installed", fields[2])
		}
		return "", fmt.Errorf("rpm: unsupported arguments %v", fields[1:])
	case "ps":
		var b strings.Builder
		for _, p := range n.Processes() {
			fmt.Fprintf(&b, "%d %s\n", p.PID, p.Name)
		}
		return b.String(), nil
	case "spawn":
		// spawn <name>: start a named process (the stand-in for launching
		// an application binary).
		if len(fields) < 2 {
			return "", fmt.Errorf("spawn: missing process name")
		}
		pid, err := n.StartProcess(fields[1])
		if err != nil {
			return "", err
		}
		return fmt.Sprintf("%d\n", pid), nil
	case "kill", "killall":
		if len(fields) < 2 {
			return "", fmt.Errorf("kill: missing process name")
		}
		killed := n.killAll(fields[1])
		return fmt.Sprintf("killed %d\n", killed), nil
	case "df":
		// One line per formatted partition, like df's mount listing.
		var b strings.Builder
		d := n.Disk()
		d.mu.RLock()
		mounts := make([]string, 0, len(d.mounted))
		for _, part := range d.mounted {
			mounts = append(mounts, part.Mount)
		}
		d.mu.RUnlock()
		sort.Strings(mounts)
		for _, m := range mounts {
			fmt.Fprintf(&b, "%s %d files (generation %d)\n", m, n.Disk().FileCount(m), generationOf(n.Disk(), m))
		}
		return b.String(), nil
	case "ls":
		if len(fields) < 2 {
			return "", fmt.Errorf("ls: missing path")
		}
		var b strings.Builder
		for _, p := range n.Disk().List(fields[1]) {
			b.WriteString(p)
			b.WriteByte('\n')
		}
		return b.String(), nil
	case "service":
		if len(fields) < 3 || fields[2] != "status" {
			return "", fmt.Errorf("service: usage: service <name> status")
		}
		if n.HasService(fields[1]) {
			return fields[1] + " is running\n", nil
		}
		return "", fmt.Errorf("service %s is not configured", fields[1])
	case "cat":
		if len(fields) < 2 {
			return "", fmt.Errorf("cat: missing path")
		}
		data, err := n.Disk().ReadFile(fields[1])
		if err != nil {
			return "", err
		}
		return string(data), nil
	case "/boot/kickstart/cluster-kickstart", "shoot-self":
		// The shoot-node payload: mark for reinstallation and reboot.
		n.ForceReinstall()
		n.requestReboot()
		return "rebooting into installation\n", nil
	case "reboot":
		n.requestReboot()
		return "rebooting\n", nil
	default:
		return "", fmt.Errorf("%s: command not found", fields[0])
	}
}

func (n *Node) requestReboot() {
	n.clearProcesses()
	n.mu.Lock()
	hook := n.OnReboot
	n.mu.Unlock()
	n.SetState(StateBooting)
	if hook != nil {
		go hook()
	}
}

// generationOf reads a partition's format generation.
func generationOf(d *Disk, mount string) int {
	if p, ok := d.Partition(mount); ok {
		return p.Generation
	}
	return 0
}
