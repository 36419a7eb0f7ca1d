package experiments

import (
	"math"
	"strings"
	"testing"
)

func TestComputePackageWorkMatchesPaperWorkload(t *testing.T) {
	work := ComputePackageWork()
	if len(work) != 162 {
		t.Errorf("packages = %d, want 162", len(work))
	}
	var bytes, cpu float64
	for _, w := range work {
		bytes += w.Bytes
		cpu += w.CPUSecs
	}
	if math.Abs(bytes-225*1048576)/(225*1048576) > 0.01 {
		t.Errorf("total bytes = %.0f, want ~225 MB", bytes)
	}
	// CPU plus solo wire time must equal the paper's 223 s D&I phase.
	wire := bytes / mbps(7.5)
	if math.Abs(cpu+wire-223) > 1 {
		t.Errorf("solo D&I = %.1f s, want 223", cpu+wire)
	}
}

func TestSoloReinstallMatchesPaper(t *testing.T) {
	r := RunInstallCurve(DefaultFleetParams(1, false))
	if math.Abs(r.TimeToLast/60-10.3) > 0.2 {
		t.Errorf("solo reinstall = %.2f min, want 10.3 ± 0.2", r.TimeToLast/60)
	}
}

// TestTableIShape asserts the paper's qualitative result: reinstall time is
// flat through 8 concurrent nodes, rises modestly at 16, and more at 32.
func TestTableIShape(t *testing.T) {
	rows := RunTableI()
	if len(rows) != 6 {
		t.Fatalf("rows = %d", len(rows))
	}
	byNodes := map[int]float64{}
	for _, r := range rows {
		byNodes[r.Nodes] = r.ModelMinutes
	}
	solo := byNodes[1]
	for _, n := range []int{2, 4, 8} {
		if math.Abs(byNodes[n]-solo) > 0.2 {
			t.Errorf("%d nodes = %.2f min; want flat at ~%.2f (no contention through 8)", n, byNodes[n], solo)
		}
	}
	if byNodes[16] <= solo+0.5 {
		t.Errorf("16 nodes = %.2f min; the server should be saturated past ~11 nodes", byNodes[16])
	}
	if byNodes[32] <= byNodes[16]+1 {
		t.Errorf("32 nodes = %.2f min; contention should grow markedly (16: %.2f)", byNodes[32], byNodes[16])
	}
	// 16-node point should be close to the paper's 11.1.
	if math.Abs(byNodes[16]-11.1) > 1.5 {
		t.Errorf("16 nodes = %.2f min, paper measured 11.1", byNodes[16])
	}
	// All nodes in a symmetric run finish together.
	for _, r := range rows {
		if r.PerNodeSpread > 1 {
			t.Errorf("%d nodes: per-node spread %.1f s; symmetric runs should finish together", r.Nodes, r.PerNodeSpread)
		}
	}
}

func TestSerialDownloadMicrobenchmark(t *testing.T) {
	// §6.3: "we found the web server sourced 7-8 MB/s."
	got := SerialDownloadMBps(DefaultFleetParams(1, false))
	if got < 7.0 || got > 8.0 {
		t.Errorf("serial download = %.2f MB/s, want 7-8", got)
	}
}

// TestFullSpeedConcurrency reproduces the paper's capacity model: with the
// web server providing ~7 MB/s and each node demanding ~1 MB/s, "the web
// server described above should be able to support 7 concurrent
// reinstallations at full speed."
func TestFullSpeedConcurrency(t *testing.T) {
	p := DefaultFleetParams(1, false)
	p.FrontendBps = mbps(7.0)
	got := MaxFullSpeedReinstalls(p, 0.02, 16)
	if got < 6 || got > 8 {
		t.Errorf("full-speed concurrency = %d, want ~7", got)
	}
}

// TestGigabitScaling reproduces the §6.3 footnote: "Gigabit Ethernet will
// support 7.0-9.5 times the number of concurrent full-speed reinstallations
// over Fast Ethernet."
func TestGigabitScaling(t *testing.T) {
	fe := DefaultFleetParams(1, false)
	fe.FrontendBps = mbps(7.0)
	feN := MaxFullSpeedReinstalls(fe, 0.02, 20)

	ge := fe
	ge.FrontendBps *= 8.5 // GigE ≈ 8.5× Fast Ethernet effective throughput
	geN := MaxFullSpeedReinstalls(ge, 0.02, 100)

	ratio := float64(geN) / float64(feN)
	if ratio < 7.0 || ratio > 9.5 {
		t.Errorf("GigE/FE concurrency ratio = %.1f (FE=%d, GE=%d), want 7.0-9.5", ratio, feN, geN)
	}
}

// TestReplicatedServers reproduces §6.3: "By deploying N web servers, one
// can support N times the number of concurrent full-speed reinstallations."
func TestReplicatedServers(t *testing.T) {
	base := DefaultFleetParams(32, false)
	one := RunInstallCurve(base)

	quad := base
	quad.Frontends = 4
	four := RunInstallCurve(quad)

	solo := RunInstallCurve(DefaultFleetParams(1, false)).TimeToLast
	if four.TimeToLast > solo*1.02 {
		t.Errorf("32 nodes on 4 servers = %.0f s; should be full speed (solo %.0f s)", four.TimeToLast, solo)
	}
	if one.TimeToLast <= four.TimeToLast*1.2 {
		t.Errorf("replication should help markedly: 1 server %.0f s vs 4 servers %.0f s", one.TimeToLast, four.TimeToLast)
	}
}

// TestMyrinetRebuildPenalty reproduces §6.3: the source rebuild "adds only
// a 20-30% time penalty on reinstallation".
func TestMyrinetRebuildPenalty(t *testing.T) {
	with := RunInstallCurve(DefaultFleetParams(1, false)).TimeToLast
	p := DefaultFleetParams(1, false)
	p.PostSecs -= 140
	without := RunInstallCurve(p).TimeToLast
	penalty := (with - without) / without
	if penalty < 0.20 || penalty > 0.30 {
		t.Errorf("Myrinet rebuild penalty = %.0f%%, want 20-30%%", penalty*100)
	}
}

func TestBytesMovedAccounting(t *testing.T) {
	r := RunInstallCurve(DefaultFleetParams(4, false))
	moved := r.FrontendBytes + r.PeerBytes
	perNode := 225.0 * 1048576
	if math.Abs(moved-4*perNode)/(4*perNode) > 0.02 {
		t.Errorf("bytes moved = %.0f, want ~4×225 MB", moved)
	}
}

func TestFormatTableI(t *testing.T) {
	out := FormatTableI(RunTableI())
	for _, want := range []string{"Nodes", "Paper", "Model", "32", "13.7"} {
		if !strings.Contains(out, want) {
			t.Errorf("FormatTableI missing %q:\n%s", want, out)
		}
	}
}

func TestRunReinstallValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("zero nodes should panic")
		}
	}()
	RunInstallCurve(FleetParams{})
}

func TestDeterministicRuns(t *testing.T) {
	a := RunInstallCurve(DefaultFleetParams(16, false))
	b := RunInstallCurve(DefaultFleetParams(16, false))
	if a.TimeToLast != b.TimeToLast {
		t.Errorf("non-deterministic: %.6f vs %.6f", a.TimeToLast, b.TimeToLast)
	}
}

// TestSequentialVsConcurrent pins the §5 contrast: integrating 16 nodes
// takes ~16 solo installs, while reinstalling the same 16 concurrently
// takes little more than one.
func TestSequentialVsConcurrent(t *testing.T) {
	p := DefaultFleetParams(16, false)
	seq := SequentialIntegration(p)
	conc := RunInstallCurve(p)
	if seq.TimeToLast < 15*conc.TimeToLast/2 {
		t.Errorf("sequential %0.f s vs concurrent %.0f s: expected ~16x gap", seq.TimeToLast, conc.TimeToLast)
	}
	if math.Abs(seq.TimeToLast-16*618)/(16*618) > 0.02 {
		t.Errorf("sequential = %.0f s, want ~16 x 618", seq.TimeToLast)
	}
}

// TestBurstyDemandAblation: with lockstep wire-speed bursts, even 8
// identical nodes contend; the smoothed pipeline model keeps them at solo
// speed — documenting why the demand model follows the paper's 1 MB/s
// accounting.
func TestBurstyDemandAblation(t *testing.T) {
	smooth := RunInstallCurve(DefaultFleetParams(8, false)).TimeToLast
	p := DefaultFleetParams(8, false)
	p.StreamBps = singleStreamBps
	bursty := RunInstallCurve(p).TimeToLast
	if bursty <= smooth*1.05 {
		t.Errorf("bursty %.0f s vs smooth %.0f s: bursts should contend", bursty, smooth)
	}
	// Solo is unaffected by the demand model (no contention to smooth).
	soloSmooth := RunInstallCurve(DefaultFleetParams(1, false)).TimeToLast
	ps := DefaultFleetParams(1, false)
	ps.StreamBps = singleStreamBps
	soloBursty := RunInstallCurve(ps).TimeToLast
	if math.Abs(soloSmooth-soloBursty) > 1 {
		t.Errorf("solo differs across demand models: %.1f vs %.1f", soloSmooth, soloBursty)
	}
}
