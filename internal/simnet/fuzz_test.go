package simnet

import (
	"fmt"
	"testing"
)

// FuzzSimulation decodes bytes into a schedule of link, start, cancel and
// timer operations and checks what must hold of any schedule: nothing panics
// or hangs, every flow that is not cancelled completes exactly once (and a
// cancelled one at most once, never after its cancel), no link is over
// capacity at any sampled instant, and virtual time never moves backwards.
//
// Encoding. Byte 0: the number of links, 1 + b%8; the next that many bytes,
// each link's capacity, 10·(1+b) B/s. Then operations of four bytes
// [op, x, y, z], scheduled at a cursor that starts at virtual time 0:
//
//	op%4 = 0  start a flow of 16·x bytes (0: a zero-byte flow), rate cap y
//	          (0: uncapped), over z%4 links, the k-th being link
//	          (z/4 + k·(1+z/32)) mod links; a flow left with neither a link
//	          nor a cap gets cap 1
//	op%4 = 1  cancel the x-th flow declared so far (mod their number)
//	op%4 = 2  move the cursor x/4 seconds on
//	op%4 = 3  sample every link's utilization at the cursor
//
// Starts, cancels and samples between two cursor moves share an instant.
func FuzzSimulation(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		s := New()
		links := make([]*Link, 1+int(data[0])%8)
		if len(data) < 1+len(links) {
			return
		}
		for i := range links {
			links[i] = s.NewLink(fmt.Sprintf("l%d", i), 10*float64(1+int(data[1+i])))
		}
		last := 0.0
		tick := func() {
			if s.Now() < last {
				t.Fatalf("virtual time moved backwards: %v after %v", s.Now(), last)
			}
			last = s.Now()
		}
		type tracked struct {
			flow      *Flow
			completed int
			cancelled bool
		}
		var flows []*tracked
		ops := data[1+len(links):]
		for cursor := 0.0; len(ops) >= 4 && len(flows) < 512; ops = ops[4:] {
			x, y, z := int(ops[1]), int(ops[2]), int(ops[3])
			switch ops[0] % 4 {
			case 0:
				tr := &tracked{}
				name := fmt.Sprintf("f%d", len(flows))
				flows = append(flows, tr)
				path := make([]*Link, z%4)
				for k := range path {
					path[k] = links[(z/4+k*(1+z/32))%len(links)]
				}
				rateCap := float64(y)
				if len(path) == 0 && y == 0 {
					rateCap = 1
				}
				s.After(cursor, func() {
					tick()
					tr.flow = s.StartFlow(name, 16*float64(x), path, rateCap, func() {
						tick()
						if tr.cancelled {
							t.Errorf("%s completed after its cancel", name)
						}
						tr.completed++
					})
				})
			case 1:
				if len(flows) == 0 {
					continue
				}
				tr := flows[x%len(flows)]
				s.After(cursor, func() {
					tick()
					tr.cancelled = tr.cancelled || tr.completed == 0
					tr.flow.Cancel()
				})
			case 2:
				cursor += float64(x) / 4
			case 3:
				s.After(cursor, func() {
					tick()
					for _, l := range links {
						if u := s.Utilization(l); u > 1+1e-9 {
							t.Errorf("t=%v: link %s at %v of capacity", s.Now(), l.Name, u)
						}
					}
				})
			}
		}
		s.Run()
		tick()
		for i, tr := range flows {
			want := 1
			if tr.cancelled {
				want = 0
			}
			if tr.completed != want {
				t.Errorf("flow %d (cancelled=%v) completed %d times, want %d", i, tr.cancelled, tr.completed, want)
			}
		}
		if s.ActiveFlows() != 0 {
			t.Errorf("%d flows still active after Run", s.ActiveFlows())
		}
	})
}
