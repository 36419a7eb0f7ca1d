package hardware

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
)

// randomNICs builds a random NIC set: 1-6 interfaces with random types,
// hex MACs, and link speeds.
func randomNICs(rng *rand.Rand) []NIC {
	types := []NICType{NICEthernet, NICMyrinet}
	speeds := []int{10, 100, 1000, 1280}
	nics := make([]NIC, 1+rng.Intn(6))
	for i := range nics {
		mac := fmt.Sprintf("%02x:%02x:%02x:%02x:%02x:%02x",
			rng.Intn(256), rng.Intn(256), rng.Intn(256),
			rng.Intn(256), rng.Intn(256), rng.Intn(256))
		nics[i] = NIC{Type: types[rng.Intn(len(types))], MAC: mac, Mbps: speeds[rng.Intn(len(speeds))]}
	}
	return nics
}

// randomProfile builds a random but plausible hardware profile.
func randomProfile(rng *rand.Rand) Profile {
	arches := []string{"i386", "athlon", "ia64"}
	return Profile{
		Arch:  arches[rng.Intn(len(arches))],
		CPUs:  1 + rng.Intn(4),
		MemMB: 256 + rng.Intn(65536),
		Disk:  Disk{Type: DiskSCSI, SizeMB: 1000 + rng.Intn(100000)},
		NICs:  randomNICs(rng),
	}
}

// TestDiffFactsOrderInsensitive: hardware probes enumerate NICs in whatever
// order the bus scan happens to walk, and firmware cases MAC addresses
// arbitrarily — neither may ever count as drift. Property-style over seeded
// random profiles: a report that shuffles the NIC set and flips MAC casing
// diffs clean.
func TestDiffFactsOrderInsensitive(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 200; trial++ {
		p := randomProfile(rng)
		f := FactsFromProfile(p, "00:50:8b:00:00:01", "compute-0-0")
		rng.Shuffle(len(f.NICs), func(i, j int) { f.NICs[i], f.NICs[j] = f.NICs[j], f.NICs[i] })
		for i := range f.NICs {
			if rng.Intn(2) == 0 {
				f.NICs[i].MAC = strings.ToUpper(f.NICs[i].MAC)
			}
		}
		if ds := DiffFacts(p, f); len(ds) != 0 {
			t.Fatalf("trial %d: reordered/recased identical hardware flagged as drift: %+v", trial, ds)
		}
	}
}

// TestDiffFactsNICChangeIsActionable: any real change to the NIC set — one
// interface missing, an extra one, a different link speed — is actionable
// drift on exactly the nics field.
func TestDiffFactsNICChangeIsActionable(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 200; trial++ {
		p := randomProfile(rng)
		f := FactsFromProfile(p, "00:50:8b:00:00:01", "compute-0-0")
		switch rng.Intn(3) {
		case 0: // drop one
			i := rng.Intn(len(f.NICs))
			f.NICs = append(f.NICs[:i], f.NICs[i+1:]...)
		case 1: // grow one
			f.NICs = append(f.NICs, NIC{Type: NICEthernet, MAC: "de:ad:be:ef:00:00", Mbps: 1000})
		default: // perturb a link speed
			f.NICs[rng.Intn(len(f.NICs))].Mbps += 7
		}
		ds := DiffFacts(p, f)
		if len(ds) != 1 || ds[0].Field != "nics" || !ds[0].Actionable {
			t.Fatalf("trial %d: NIC change diffed as %+v, want one actionable nics drift", trial, ds)
		}
	}
}

// TestDiffFactsMemTolerance: MemMB readings inside the tolerance band are
// not drift at all (kernel reservations, DMI rounding); outside the band
// they are drift but never actionable. Property-style around the exact
// integer boundary.
func TestDiffFactsMemTolerance(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	const pct = MemTolerancePct
	for trial := 0; trial < 500; trial++ {
		p := randomProfile(rng)
		delta := rng.Intn(p.MemMB/5) - p.MemMB/10 // anywhere within ±10%
		f := FactsFromProfile(p, "00:50:8b:00:00:01", "compute-0-0")
		f.MemMB = p.MemMB + delta
		wantDrift := delta*100 > p.MemMB*pct || -delta*100 > p.MemMB*pct
		ds := DiffFacts(p, f)
		switch {
		case !wantDrift && len(ds) != 0:
			t.Fatalf("trial %d: mem %d%+d (within %d%%) flagged: %+v", trial, p.MemMB, delta, pct, ds)
		case wantDrift && (len(ds) != 1 || ds[0].Field != "mem_mb"):
			t.Fatalf("trial %d: mem %d%+d diffed as %+v, want one mem_mb drift", trial, p.MemMB, delta, ds)
		case wantDrift && ds[0].Actionable:
			t.Fatalf("trial %d: mem_mb drift marked actionable; memory wobble must never trigger a reinstall", trial)
		}
	}
}

// TestDiffFactsClassification pins the actionable/benign split per field:
// arch, disk, and NICs warrant a reinstall; CPU count never does, and
// architecture comparison ignores case.
func TestDiffFactsClassification(t *testing.T) {
	base := Profile{
		Arch: "i386", CPUs: 2, MemMB: 1024,
		Disk: Disk{Type: DiskSCSI, SizeMB: 9000},
		NICs: []NIC{{Type: NICEthernet, MAC: "00:50:8b:aa:bb:cc", Mbps: 100}},
	}
	report := func(mut func(*Facts)) Facts {
		f := FactsFromProfile(base, "00:50:8b:aa:bb:cc", "compute-0-0")
		mut(&f)
		return f
	}
	cases := []struct {
		name       string
		facts      Facts
		field      string
		actionable bool
	}{
		{"arch", report(func(f *Facts) { f.Arch = "ia64" }), "arch", true},
		{"arch-case", report(func(f *Facts) { f.Arch = "I386" }), "", false},
		{"cpus", report(func(f *Facts) { f.CPUs = 4 }), "cpus", false},
		{"disk-size", report(func(f *Facts) { f.Disk.SizeMB = 4500 }), "disk", true},
		{"disk-type", report(func(f *Facts) { f.Disk.Type = DiskIDE }), "disk", true},
	}
	for _, tc := range cases {
		ds := DiffFacts(base, tc.facts)
		if tc.field == "" {
			if len(ds) != 0 {
				t.Errorf("%s: want clean diff, got %+v", tc.name, ds)
			}
			continue
		}
		if len(ds) != 1 || ds[0].Field != tc.field {
			t.Errorf("%s: diff = %+v, want one %s drift", tc.name, ds, tc.field)
			continue
		}
		if ds[0].Actionable != tc.actionable {
			t.Errorf("%s: actionable = %v, want %v", tc.name, ds[0].Actionable, tc.actionable)
		}
		if got := Actionable(ds); got != tc.actionable {
			t.Errorf("%s: Actionable() = %v, want %v", tc.name, got, tc.actionable)
		}
	}
}
