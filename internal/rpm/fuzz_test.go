package rpm

import (
	"bytes"
	"runtime"
	"testing"
)

// FuzzRead feeds Read what a peer relay or a torn transfer could: Read is the
// one decoder of package bytes that arrive over the network, and the sizes it
// allocates come from headers inside those bytes. It must never panic, never
// allocate more than a small multiple of its input (a header's claim is not
// evidence that the bytes exist), and anything it accepts must survive the
// one encoder: re-encoded and re-read, it is the same package with the same
// payload digest. The corpus in testdata/fuzz/FuzzRead is a valid package,
// the same cut at every 512-byte block, one with a bit flipped in the name
// inside metadata.json, and one whose payload header claims 1 GiB.
func FuzzRead(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		p, err := Read(bytes.NewReader(data))
		runtime.ReadMemStats(&after)
		// The fixed part covers the tar and JSON decoders' own buffers; the
		// multiple covers a header struct and its strings per 512-byte block.
		if got, limit := after.TotalAlloc-before.TotalAlloc, uint64(64<<10+16*len(data)); got > limit {
			t.Fatalf("Read allocated %d bytes for %d bytes of input (limit %d)", got, len(data), limit)
		}
		if err != nil {
			return
		}
		q, err := Read(bytes.NewReader(p.Bytes()))
		if err != nil {
			t.Fatalf("accepted %s, but its re-encoding does not read back: %v", p.NVRA(), err)
		}
		if q.NVRA() != p.NVRA() || q.Digest != PayloadDigest(p.Files) || p.Digest != "" && p.Digest != q.Digest {
			t.Fatalf("accepted %s digest %q, re-read as %s digest %q", p.NVRA(), p.Digest, q.NVRA(), q.Digest)
		}
	})
}
