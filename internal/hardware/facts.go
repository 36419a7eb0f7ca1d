package hardware

import (
	"fmt"
	"sort"
	"strings"
)

// This file is the vocabulary of the facts-driven inventory loop: the wire
// format a node's first-boot agent reports about itself (Facts), and the
// order-insensitive comparator the frontend runs against the profile the
// database expects (DiffFacts). The comparator is deliberately conservative
// about what it calls actionable: a wrong architecture, disk, or NIC set is
// something a reinstall re-probes and fixes, while CPU count and memory
// readings wobble with kernel reservations and flaky DMI tables — those are
// recorded, never remediated.

// Facts is the agent's report: the identity it installed under plus what its
// hardware probe actually saw.
type Facts struct {
	MAC    string `json:"mac"`
	Name   string `json:"name"`
	Arch   string `json:"arch"`
	CPUs   int    `json:"cpus"`
	CPUMHz int    `json:"cpu_mhz,omitempty"`
	MemMB  int    `json:"mem_mb"`
	Disk   Disk   `json:"disk"`
	NICs   []NIC  `json:"nics"`
}

// FactsFromProfile builds the report for a probed profile under the node's
// management identity.
func FactsFromProfile(p Profile, mac, name string) Facts {
	return Facts{
		MAC: mac, Name: name, Arch: p.Arch, CPUs: p.CPUs, CPUMHz: p.CPUMHz,
		MemMB: p.MemMB, Disk: p.Disk, NICs: append([]NIC(nil), p.NICs...),
	}
}

// Drift is one field where a node's reported facts diverge from the profile
// the database expects. Actionable drift is what a reinstall's fresh
// hardware probe would correct; everything else is inventory-only.
type Drift struct {
	Field      string `json:"field"` // "arch", "cpus", "mem_mb", "disk", "nics"
	Expected   string `json:"expected"`
	Got        string `json:"got"`
	Actionable bool   `json:"actionable"`
}

// MemTolerancePct is how far (in percent) a reported MemMB may sit
// from the expected value before it counts as drift at all. Kernels reserve
// memory, BIOSes round it; a 5% band keeps that noise out of the timeline.
const MemTolerancePct = 5

// CanonicalNICs renders a NIC set in canonical form: one "type/mac/mbps"
// entry per NIC with the MAC lower-cased, sorted. Two hardware-identical NIC
// sets canonicalize identically no matter what order the probe enumerated
// them in or how the firmware cased the addresses.
func CanonicalNICs(nics []NIC) []string {
	out := make([]string, len(nics))
	for i, n := range nics {
		out[i] = fmt.Sprintf("%s/%s/%d", n.Type, strings.ToLower(n.MAC), n.Mbps)
	}
	sort.Strings(out)
	return out
}

// DiskString renders a disk for drift details.
func DiskString(d Disk) string { return fmt.Sprintf("%s/%dMB", d.Type, d.SizeMB) }

// DiffFacts compares what a node reported against what the database expects
// and returns one Drift per divergent field, in a fixed field order. The
// comparison is order-insensitive where hardware enumeration order is
// meaningless (NICs) and case-insensitive on MAC addresses; a MemMB reading
// within MemTolerancePct of the expected value is not drift at all.
func DiffFacts(expected Profile, got Facts) []Drift {
	var out []Drift
	if !strings.EqualFold(expected.Arch, got.Arch) {
		out = append(out, Drift{Field: "arch", Expected: expected.Arch, Got: got.Arch, Actionable: true})
	}
	if expected.CPUs != got.CPUs {
		out = append(out, Drift{Field: "cpus",
			Expected: fmt.Sprintf("%d", expected.CPUs), Got: fmt.Sprintf("%d", got.CPUs)})
	}
	if d := expected.MemMB - got.MemMB; d*100 > expected.MemMB*MemTolerancePct ||
		-d*100 > expected.MemMB*MemTolerancePct {
		out = append(out, Drift{Field: "mem_mb",
			Expected: fmt.Sprintf("%d", expected.MemMB), Got: fmt.Sprintf("%d", got.MemMB)})
	}
	if expected.Disk.Type != got.Disk.Type || expected.Disk.SizeMB != got.Disk.SizeMB {
		out = append(out, Drift{Field: "disk",
			Expected: DiskString(expected.Disk), Got: DiskString(got.Disk), Actionable: true})
	}
	want, have := CanonicalNICs(expected.NICs), CanonicalNICs(got.NICs)
	if strings.Join(want, ";") != strings.Join(have, ";") {
		out = append(out, Drift{Field: "nics",
			Expected: strings.Join(want, ";"), Got: strings.Join(have, ";"), Actionable: true})
	}
	return out
}

// Actionable reports whether any drift in the set warrants remediation.
func Actionable(ds []Drift) bool {
	for _, d := range ds {
		if d.Actionable {
			return true
		}
	}
	return false
}
