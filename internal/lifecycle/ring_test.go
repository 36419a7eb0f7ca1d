package lifecycle

import (
	"math/rand"
	"reflect"
	"runtime"
	"testing"
)

// TestRingMatchesSliceModel drives random pushes and selects against the
// obvious reference — a plain slice trimmed to the newest size values — over
// sizes that wrap many times. The bus, the audit log and the federation
// mirror all keep their history in this one type, so this is the eviction,
// ordering and limit contract of all three.
func TestRingMatchesSliceModel(t *testing.T) {
	for _, size := range []int{1, 2, 7, 64} {
		rng := rand.New(rand.NewSource(int64(size)))
		r := NewRing[int](size)
		var model []int
		var evicted uint64
		for step := 0; step < 4000; step++ {
			if rng.Intn(4) > 0 {
				v := rng.Intn(100)
				r.Push(v)
				model = append(model, v)
				if len(model) > size {
					model = model[1:]
					evicted++
				}
				continue
			}
			mod, limit := 1+rng.Intn(5), rng.Intn(size+3) // limit 0 = unlimited
			keep := func(v *int) bool { return *v%mod == 0 }
			want := []int{}
			for _, v := range model {
				if keep(&v) {
					want = append(want, v)
				}
			}
			if limit > 0 && len(want) > limit {
				want = want[len(want)-limit:]
			}
			if got := r.Select(limit, keep); !reflect.DeepEqual(got, want) {
				t.Fatalf("size %d step %d: Select(%d, %%%d) = %v, want %v (ring %v)", size, step, limit, mod, got, want, model)
			}
		}
		if r.Len() != len(model) || r.Evicted() != evicted {
			t.Fatalf("size %d: Len %d Evicted %d, want %d and %d", size, r.Len(), r.Evicted(), len(model), evicted)
		}
		for i, v := range model {
			if *r.At(i) != v {
				t.Fatalf("size %d: At(%d) = %d, want %d", size, i, *r.At(i), v)
			}
		}
	}
}

// TestRecentAllocatesWhatItReturns: a bounded query on a full default ring
// must not pay for the ring. Recent used to allocate the ring's whole
// capacity (4096 events, over 600 KB) under the publish lock whatever it
// returned; a hundred events are about 15 KB.
func TestRecentAllocatesWhatItReturns(t *testing.T) {
	b := NewBus(0)
	for i := 0; i < DefaultRingSize+10; i++ {
		b.Publish(Event{Node: "compute-0-0", MAC: "aa:bb", Phase: PhaseInstall, Type: EventLease, Source: "installer"})
	}
	const calls = 50
	var got []Event
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < calls; i++ {
		got = b.Recent(Filter{Limit: 100})
	}
	runtime.ReadMemStats(&after)
	if len(got) != 100 || got[99].Seq != b.Seq() {
		t.Fatalf("Recent(Limit: 100) returned %d events ending at seq %d, want 100 ending at %d", len(got), got[len(got)-1].Seq, b.Seq())
	}
	if per := (after.TotalAlloc - before.TotalAlloc) / calls; per >= 64<<10 {
		t.Fatalf("Recent(Limit: 100) on a full ring allocates %d B per call, want < 64 KB", per)
	}
}
