package lifecycle

// Ring is a bounded log: the most recent values pushed, in push order. It is
// the one store behind the lifecycle bus, the control plane's audit log and
// a federation parent's per-child event mirror. A Ring does not lock: each
// of those owners already serialises its own sequence counter and
// statistics under a mutex, and the ring is read and written under that
// same hold, so a lock of its own would only be taken twice.
type Ring[T any] struct {
	buf     []T // len grows to cap, then the ring wraps
	start   int // index of the oldest value once full
	evicted uint64
}

// NewRing returns a ring that keeps the newest size values.
func NewRing[T any](size int) Ring[T] {
	return Ring[T]{buf: make([]T, 0, size)}
}

// Push appends v, evicting (and counting) the oldest value when full.
func (r *Ring[T]) Push(v T) {
	if len(r.buf) < cap(r.buf) {
		r.buf = append(r.buf, v)
		return
	}
	r.buf[r.start] = v
	r.start = (r.start + 1) % len(r.buf)
	r.evicted++
}

// Len is the number of values held.
func (r *Ring[T]) Len() int { return len(r.buf) }

// Evicted counts values pushed out by newer ones.
func (r *Ring[T]) Evicted() uint64 { return r.evicted }

// At returns the i-th oldest value, 0 <= i < Len, in place.
func (r *Ring[T]) At(i int) *T { return &r.buf[(r.start+i)%len(r.buf)] }

// Select returns the values keep accepts, oldest first; with limit > 0 only
// the newest limit of them. It walks back from the newest value and stops at
// the limit-th match, then copies exactly the matches, so a query allocates
// what it returns and a bounded one reads only as far back as it must.
func (r *Ring[T]) Select(limit int, keep func(*T) bool) []T {
	n, from := 0, r.Len()
	for i := r.Len() - 1; i >= 0 && (limit <= 0 || n < limit); i-- {
		if keep(r.At(i)) {
			n, from = n+1, i
		}
	}
	out := make([]T, 0, n)
	for i := from; len(out) < n; i++ {
		if v := r.At(i); keep(v) {
			out = append(out, *v)
		}
	}
	return out
}
