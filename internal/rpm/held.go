package rpm

import (
	"bytes"
	"fmt"
	"runtime"
	"sync"
	"weak"
)

// Held is one copy in the process of each package verified through it:
// reinstallation makes every node of a class run byte-identical packages
// (§3.2). It is keyed by the header bytes, not the payload digest, which an
// update may share with its base package (dist.GenerateUpdates). An entry is
// weak: it holds a package while someone else does.
type Held struct {
	mu sync.Mutex
	m  map[string]weak.Pointer[Package] // by header bytes
}

// NewHeld returns an empty store.
func NewHeld() *Held { return &Held{m: make(map[string]weak.Pointer[Package])} }

// Decode accepts and rejects exactly what Decode does, and keeps nothing of
// body either. A body with a held package's header is that package once its
// payload is the held payload (carries), which Decode would also accept; any
// other is Decode's, and held from then on. A nil Held holds nothing.
func (h *Held) Decode(body []byte) (*Package, error) {
	if h == nil {
		return Decode(body)
	}
	hdr, payload, err := frame(body)
	if err != nil {
		return nil, err
	}
	h.mu.Lock()
	held := h.m[string(hdr)].Value()
	h.mu.Unlock()
	if held != nil {
		if !held.carries(payload) {
			return nil, fmt.Errorf("rpm: %s: payload digest mismatch (corrupted package)", held.NVRA())
		}
		return held, nil
	}
	p, err := Decode(body)
	if err != nil {
		return nil, err
	}
	key := string(hdr)
	h.mu.Lock()
	defer h.mu.Unlock()
	if held := h.m[key].Value(); held != nil {
		return held, nil // another install held the same body meanwhile
	}
	h.m[key] = weak.Make(p)
	runtime.AddCleanup(p, func(wp weak.Pointer[Package]) {
		h.mu.Lock()
		defer h.mu.Unlock()
		if h.m[key] == wp { // not yet taken by a later copy
			delete(h.m, key)
		}
	}, h.m[key])
	return p, nil
}

// Len reports how many packages are held, a collected one until it leaves.
func (h *Held) Len() int {
	h.mu.Lock()
	defer h.mu.Unlock()
	return len(h.m)
}

// carries reports whether payload is the package's files' data back to back
// in table order, nothing after: short of a collision, whether it hashes to
// the digest. Held bytes are Decode's copy, which did, and nothing writes
// them (Repository.Add stamps a copy; a disk copies a file to write it).
func (p *Package) carries(payload []byte) bool {
	for _, f := range p.Files {
		var ok bool
		if payload, ok = bytes.CutPrefix(payload, f.Data); !ok {
			return false
		}
	}
	return len(payload) == 0
}
