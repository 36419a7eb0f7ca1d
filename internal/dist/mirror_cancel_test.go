package dist

import (
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestMirrorCancelReturnsWithinOneBackoff is the regression test for the
// uncancellable retry loop: against a parent that answers every package
// stream with a 500 and a deliberately enormous retry schedule, cancelling
// the pass's context must abort it within one backoff step — not leave it
// grinding through the budget long after the cluster shut down.
func TestMirrorCancelReturnsWithinOneBackoff(t *testing.T) {
	firstFetch := make(chan struct{})
	var once sync.Once
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch {
		case strings.HasSuffix(r.URL.Path, "/RedHat/base/manifest"):
			io.WriteString(w, "ghost-1.0-1.i386 1 0123abcd -\n")
		default:
			once.Do(func() { close(firstFetch) })
			http.Error(w, "permanently broken", http.StatusInternalServerError)
		}
	}))
	defer srv.Close()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan error, 1)
	start := time.Now()
	go func() {
		// An hour of backoff and a deep budget: if cancellation does not cut
		// the sleep short, this pass cannot return inside the test deadline.
		_, _, err := Mirror(ctx, srv.URL, "doomed", MirrorOptions{
			Fetcher: Fetcher{HTTP: srv.Client(), Attempts: 10, Backoff: time.Hour},
		})
		done <- err
	}()

	select {
	case <-firstFetch:
	case <-time.After(30 * time.Second):
		t.Fatal("mirror never asked for a package stream")
	}
	cancel()

	select {
	case err := <-done:
		if err == nil {
			t.Fatal("cancelled pass reported success")
		}
		if elapsed := time.Since(start); elapsed > 10*time.Second {
			t.Fatalf("cancelled pass took %v to return; want within one backoff step", elapsed)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("cancelled mirror pass still running: retry loop ignored its context")
	}
}
