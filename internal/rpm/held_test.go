package rpm

import (
	"bytes"
	"runtime"
	"testing"
	"time"
)

// TestHeldKeysOnTheHeader: an update that carries its base package's payload
// byte for byte under a bumped release — the same payload digest — is a
// package of its own, a repeat of either body is the package already held,
// and a package nobody holds leaves the store.
func TestHeldKeysOnTheHeader(t *testing.T) {
	base := corpusPackage()
	update := corpusPackage()
	update.Version.Release += ".1"
	if base.EnsureDigest() != update.EnsureDigest() {
		t.Fatal("the update's payload is not the base package's")
	}
	h := NewHeld()
	x, err := h.Decode(base.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	y, err := h.Decode(update.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if x == y || x.NVRA() != base.NVRA() || y.NVRA() != update.NVRA() {
		t.Fatalf("decoded %s and %s, want %s and %s as two packages", x.NVRA(), y.NVRA(), base.NVRA(), update.NVRA())
	}
	body := base.Bytes()
	if again, err := h.Decode(body); err != nil || again != x {
		t.Fatalf("a repeat body decoded to %p (%v), not the held %p", again, err, x)
	}
	body[len(body)-1] ^= 0x01 // payload: the header is still the held one
	if _, err := h.Decode(body); err == nil {
		t.Fatal("a repeat header over a flipped payload byte was accepted")
	}
	if h.Len() != 2 {
		t.Errorf("holds %d packages, want 2", h.Len())
	}
	runtime.KeepAlive(x)
	runtime.KeepAlive(y)
	// Once nobody holds them, both leave the store after a collection.
	for deadline := time.Now().Add(10 * time.Second); h.Len() != 0; {
		if time.Now().After(deadline) {
			t.Fatalf("packages nobody holds are still in the store (%d entries)", h.Len())
		}
		runtime.GC()
		time.Sleep(time.Millisecond)
	}
}

// FuzzHeldDecode holds the store's decoder to the package decoder's: with
// FuzzRead's valid package held, any bytes are accepted by both or by
// neither, and what both accept encodes to the same bytes. A header that is
// the held one takes the store's hit path, a comparison with the held bytes
// where Decode hashes, so this is where a hit that checked less than Decode
// does would show.
func FuzzHeldDecode(f *testing.F) {
	valid := corpusPackage().Bytes()
	h := NewHeld()
	held, err := h.Decode(valid)
	if err != nil {
		f.Fatal(err)
	}
	payloadFlip := bytes.Clone(valid)
	payloadFlip[len(payloadFlip)-1] ^= 0x01
	headerFlip := bytes.Clone(valid)
	headerFlip[bytes.Index(headerFlip, []byte("DHCP server"))] ^= 0x01
	for _, seed := range [][]byte{valid, payloadFlip, headerFlip, valid[:len(valid)-1]} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		got, gotErr := h.Decode(data)
		want, wantErr := Decode(data)
		if (gotErr == nil) != (wantErr == nil) {
			t.Fatalf("the store says %v, Decode says %v", gotErr, wantErr)
		}
		if gotErr == nil && !bytes.Equal(got.Bytes(), want.Bytes()) {
			t.Fatalf("the store decoded %s to other bytes than Decode", want.NVRA())
		}
	})
	runtime.KeepAlive(held)
}
