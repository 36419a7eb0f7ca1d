package memnet

import (
	"bytes"
	"context"
	"errors"
	"io"
	"net"
	"net/http"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"
)

// connPair dials a fresh listener and returns the client and server ends.
func connPair(t *testing.T) (client, server net.Conn) {
	t.Helper()
	n := New()
	l, err := n.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	client, err = n.DialContext(context.Background(), "tcp", l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	server, err = l.Accept()
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { client.Close(); server.Close() })
	return client, server
}

// readErr runs Read on another goroutine and returns its result channel.
func readErr(c net.Conn) <-chan error {
	done := make(chan error, 1)
	go func() {
		_, err := c.Read(make([]byte, 8))
		done <- err
	}()
	return done
}

func waitErr(t *testing.T, done <-chan error, what string) error {
	t.Helper()
	select {
	case err := <-done:
		return err
	case <-time.After(5 * time.Second):
		t.Fatalf("%s never returned", what)
		return nil
	}
}

func isTimeout(err error) bool {
	var ne net.Error
	return errors.As(err, &ne) && ne.Timeout()
}

func TestReadPastDeadlineTimesOut(t *testing.T) {
	client, server := connPair(t)
	client.SetReadDeadline(time.Now().Add(10 * time.Millisecond))
	if err := waitErr(t, readErr(client), "Read"); !isTimeout(err) {
		t.Fatalf("Read past its deadline: %v, want a net.Error with Timeout() true", err)
	}
	// Clearing the deadline makes the conn usable again, as net/http
	// expects after aborting its background read.
	client.SetReadDeadline(time.Time{})
	server.Write([]byte("x"))
	if err := waitErr(t, readErr(client), "Read"); err != nil {
		t.Fatalf("Read after clearing the deadline: %v", err)
	}
}

func TestMovingDeadlineWakesBlockedRead(t *testing.T) {
	for name, move := range map[string]time.Time{
		"to the past":  time.Unix(1, 0),
		"nearer":       time.Now().Add(20 * time.Millisecond),
		"from a timer": {},
	} {
		t.Run(name, func(t *testing.T) {
			client, _ := connPair(t)
			if move.IsZero() {
				// A far deadline, then a near one replacing its timer.
				client.SetReadDeadline(time.Now().Add(time.Hour))
				move = time.Now().Add(20 * time.Millisecond)
			}
			done := readErr(client)
			time.Sleep(10 * time.Millisecond) // let the Read block
			client.SetReadDeadline(move)
			if err := waitErr(t, done, "blocked Read"); !isTimeout(err) {
				t.Fatalf("blocked Read after moving the deadline: %v, want a timeout", err)
			}
		})
	}
}

func TestCloseUnblocksBothEnds(t *testing.T) {
	client, server := connPair(t)
	local, peer := readErr(client), readErr(server)
	time.Sleep(10 * time.Millisecond) // let both Reads block
	client.Close()
	if err := waitErr(t, local, "local Read"); !errors.Is(err, net.ErrClosed) {
		t.Errorf("local Read after Close: %v, want net.ErrClosed", err)
	}
	if err := waitErr(t, peer, "peer Read"); err != io.EOF {
		t.Errorf("peer Read after Close: %v, want io.EOF", err)
	}
	if _, err := client.Write([]byte("x")); !errors.Is(err, net.ErrClosed) {
		t.Errorf("Write after Close: %v, want net.ErrClosed", err)
	}

	// Writers blocked on full buffers, nobody reading, are released too.
	client, server = connPair(t)
	writeErr := func(c net.Conn) <-chan error {
		done := make(chan error, 1)
		go func() {
			_, err := c.Write(make([]byte, 3*bufSize))
			done <- err
		}()
		return done
	}
	local, peer = writeErr(client), writeErr(server)
	time.Sleep(10 * time.Millisecond)
	client.Close()
	if err := waitErr(t, local, "local Write"); !errors.Is(err, net.ErrClosed) {
		t.Errorf("local Write after Close: %v, want net.ErrClosed", err)
	}
	if err := waitErr(t, peer, "peer Write"); err == nil {
		t.Error("peer Write to a closed conn succeeded")
	}
}

func TestPeerDrainsBufferedDataToEOF(t *testing.T) {
	client, server := connPair(t)
	msg := []byte("buffered before close")
	if _, err := client.Write(msg); err != nil {
		t.Fatal(err)
	}
	client.Close()
	got, err := io.ReadAll(server)
	if err != nil || !bytes.Equal(got, msg) {
		t.Fatalf("peer read %q, %v; want %q to EOF", got, err, msg)
	}
}

func TestWriteLargerThanBufferCompletes(t *testing.T) {
	client, server := connPair(t)
	msg := bytes.Repeat([]byte("0123456789abcdef"), 5*bufSize/16+3)
	written := make(chan error, 1)
	go func() {
		_, err := client.Write(msg)
		client.Close()
		written <- err
	}()
	got, err := io.ReadAll(server)
	if err != nil || !bytes.Equal(got, msg) {
		t.Fatalf("read %d bytes, %v; want the %d written", len(got), err, len(msg))
	}
	if err := waitErr(t, written, "Write"); err != nil {
		t.Fatal(err)
	}
}

func TestClosedListenerAndUnknownAddressRefuse(t *testing.T) {
	n := New()
	l, err := n.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	other, err := n.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer other.Close()
	if l.Addr().String() == other.Addr().String() {
		t.Fatalf("two listeners share %s", l.Addr())
	}
	if _, err := n.Listen(other.Addr().String()); err == nil {
		t.Fatal("a second Listen on a held address succeeded")
	}
	addr := l.Addr().String()
	l.Close()
	if _, err := l.Accept(); !errors.Is(err, net.ErrClosed) {
		t.Errorf("Accept after Close: %v, want net.ErrClosed", err)
	}
	ctx := context.Background()
	if _, err := n.DialContext(ctx, "tcp", addr); !errors.Is(err, syscall.ECONNREFUSED) {
		t.Errorf("dial to a closed listener: %v, want connection refused", err)
	}
	if _, err := n.DialContext(ctx, "tcp", "10.1.255.254:80"); !errors.Is(err, syscall.ECONNREFUSED) {
		t.Errorf("dial to an unknown address: %v, want connection refused", err)
	}
	// A dial waiting in the accept queue when the listener closes is closed.
	c, err := n.DialContext(ctx, "tcp", other.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	other.Close()
	if err := waitErr(t, readErr(c), "Read on a never-accepted conn"); err != io.EOF {
		t.Errorf("Read on a conn its listener never accepted: %v, want io.EOF", err)
	}
}

func TestAddressesParse(t *testing.T) {
	client, server := connPair(t)
	for _, a := range []net.Addr{client.LocalAddr(), client.RemoteAddr(), server.LocalAddr(), server.RemoteAddr()} {
		if _, _, err := net.SplitHostPort(a.String()); err != nil {
			t.Errorf("address %q: %v", a, err)
		}
	}
	if client.RemoteAddr().String() != server.LocalAddr().String() ||
		server.RemoteAddr().String() != client.LocalAddr().String() {
		t.Errorf("ends disagree: client %s→%s, server %s→%s",
			client.LocalAddr(), client.RemoteAddr(), server.LocalAddr(), server.RemoteAddr())
	}
}

func TestConcurrentReadWriteClose(t *testing.T) {
	client, server := connPair(t)
	var wg sync.WaitGroup
	for _, c := range []net.Conn{client, server} {
		for range 2 {
			wg.Add(2)
			go func() {
				defer wg.Done()
				buf := make([]byte, 1000)
				for {
					if _, err := c.Write(buf); err != nil {
						return
					}
				}
			}()
			go func() {
				defer wg.Done()
				buf := make([]byte, 700)
				for {
					if _, err := c.Read(buf); err != nil {
						return
					}
				}
			}()
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			for range 20 {
				c.SetDeadline(time.Now().Add(time.Hour))
				c.SetDeadline(time.Time{})
			}
		}()
	}
	time.Sleep(20 * time.Millisecond)
	var closers sync.WaitGroup
	for _, c := range []net.Conn{client, server, client} {
		closers.Add(1)
		go func() { defer closers.Done(); c.Close() }()
	}
	closers.Wait()
	wg.Wait()
	for _, c := range []*conn{client.(*conn), server.(*conn)} {
		c.p.mu.Lock()
		if c.rd.timer != nil || c.wd.timer != nil {
			t.Error("a deadline timer outlived Close")
		}
		c.p.mu.Unlock()
	}
}

func TestHTTPOverMemnet(t *testing.T) {
	n := New()
	l, err := n.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	body := strings.Repeat("package bytes ", 3*bufSize/14)
	unblock := make(chan struct{})
	srv := &http.Server{Handler: http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if _, _, err := net.SplitHostPort(r.RemoteAddr); err != nil {
			t.Errorf("RemoteAddr %q: %v", r.RemoteAddr, err)
		}
		if r.URL.Path == "/stall" {
			w.Write([]byte(body[:100]))
			w.(http.Flusher).Flush()
			<-unblock
		}
		io.WriteString(w, body)
	})}
	served := make(chan error, 1)
	go func() { served <- srv.Serve(l) }()
	transport := http.DefaultTransport.(*http.Transport).Clone()
	transport.DialContext = n.DialContext
	client := &http.Client{Transport: transport}
	base := "http://" + l.Addr().String()

	for range 3 { // the later requests ride the pooled conn
		resp, err := client.Get(base + "/")
		if err != nil {
			t.Fatal(err)
		}
		got, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil || string(got) != body {
			t.Fatalf("read %d bytes, %v; want %d", len(got), err, len(body))
		}
	}

	// A client cancelled mid-body gets an error, and the server goes on.
	ctx, cancel := context.WithCancel(context.Background())
	req, _ := http.NewRequestWithContext(ctx, http.MethodGet, base+"/stall", nil)
	resp, err := client.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := io.ReadFull(resp.Body, make([]byte, 100)); err != nil {
		t.Fatal(err)
	}
	cancel()
	if _, err := io.ReadAll(resp.Body); err == nil {
		t.Error("a cancelled body read to its end")
	}
	resp.Body.Close()
	close(unblock)
	if resp, err := client.Get(base + "/"); err != nil {
		t.Fatalf("request after a cancelled one: %v", err)
	} else {
		resp.Body.Close()
	}

	srv.Close()
	transport.CloseIdleConnections()
	if err := waitErr(t, served, "Serve"); !errors.Is(err, http.ErrServerClosed) {
		t.Errorf("Serve: %v", err)
	}
	if _, err := client.Get(base + "/"); err == nil {
		t.Error("a request to a closed server succeeded")
	}
}
