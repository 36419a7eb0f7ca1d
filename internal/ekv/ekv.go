// Package ekv implements eKV, "Ethernet Keyboard and Video" (§6.3): the
// Rocks modification to the installer that captures its standard output and
// presents it on a telnet-compatible TCP port, so an administrator can
// watch — and interact with — a Kickstart installation from a remote xterm
// (Figure 7) instead of wheeling a crash cart to the node.
//
// The Server is an io.Writer the installer writes its screen to; any number
// of clients may attach over TCP, receive the accumulated screen followed
// by live output, and send keystroke lines back, which the installer reads
// from Input().
package ekv

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"io"
	"net"
	"strings"
	"sync"
	"time"
)

// Server is one node's eKV endpoint, alive for the duration of an
// installation.
type Server struct {
	ln net.Listener

	mu      sync.Mutex
	screen  bytes.Buffer
	clients map[net.Conn]struct{}
	closed  bool

	input chan string
}

// NewServer starts an eKV listener on an ephemeral loopback port (real
// Rocks uses a fixed telnet-compatible port per node; our nodes share one
// host, so each gets its own port).
func NewServer() (*Server, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("ekv: listen: %w", err)
	}
	s := &Server{
		ln:      ln,
		clients: make(map[net.Conn]struct{}),
		input:   make(chan string, 64),
	}
	go s.acceptLoop()
	return s, nil
}

// Addr returns the dialable address of the eKV port.
func (s *Server) Addr() string { return s.ln.Addr().String() }

// Write implements io.Writer: output is appended to the screen transcript
// and mirrored to every attached client.
func (s *Server) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return 0, fmt.Errorf("ekv: server closed")
	}
	s.screen.Write(p)
	for c := range s.clients {
		// Best effort: a stuck client must not stall the installer.
		c.SetWriteDeadline(time.Now().Add(time.Second))
		if _, err := c.Write(p); err != nil {
			c.Close()
			delete(s.clients, c)
		}
	}
	return len(p), nil
}

// Printf is a convenience formatter over Write.
func (s *Server) Printf(format string, args ...interface{}) {
	fmt.Fprintf(s, format, args...)
}

// Screen returns the accumulated transcript.
func (s *Server) Screen() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.screen.String()
}

// Input returns the channel of lines typed by attached clients — the
// "keyboard" half of eKV, which lets a user interact with a wedged
// installation.
func (s *Server) Input() <-chan string { return s.input }

// AwaitLine blocks for the next keyboard line from any attached client,
// bounded by both the context and the timeout. ok is false when the wait
// expired or was cancelled before a line arrived.
func (s *Server) AwaitLine(ctx context.Context, timeout time.Duration) (line string, ok bool) {
	if timeout <= 0 {
		return "", false
	}
	t := time.NewTimer(timeout)
	defer t.Stop()
	select {
	case line = <-s.input:
		return line, true
	case <-t.C:
		return "", false
	case <-ctx.Done():
		return "", false
	}
}

// Close shuts the listener and all client connections.
func (s *Server) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	for c := range s.clients {
		c.Close()
	}
	s.clients = nil
	s.mu.Unlock()
	s.ln.Close()
}

func (s *Server) acceptLoop() {
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			return
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			conn.Close()
			return
		}
		// Replay the accumulated screen so a late attach (shoot-node
		// popping its xterm after the install started) still sees history.
		backlog := s.screen.Bytes()
		conn.SetWriteDeadline(time.Now().Add(2 * time.Second))
		conn.Write(backlog)
		conn.SetWriteDeadline(time.Time{})
		s.clients[conn] = struct{}{}
		s.mu.Unlock()
		go s.readLoop(conn)
	}
}

func (s *Server) readLoop(conn net.Conn) {
	sc := bufio.NewScanner(conn)
	for sc.Scan() {
		line := strings.TrimRight(sc.Text(), "\r")
		select {
		case s.input <- line:
		default: // drop keystrokes nobody is reading
		}
	}
	s.mu.Lock()
	if !s.closed {
		delete(s.clients, conn)
	}
	s.mu.Unlock()
	conn.Close()
}

// Client is an attached eKV viewer — the programmatic stand-in for the
// xterm shoot-node pops open.
type Client struct {
	conn  net.Conn
	mu    sync.Mutex
	buf   bytes.Buffer
	first chan struct{} // closed by the first bytes captured, or the hangup
	done  chan struct{}
}

// Attach dials a node's eKV port and begins capturing its screen.
func Attach(addr string) (*Client, error) {
	conn, err := net.DialTimeout("tcp", addr, 5*time.Second)
	if err != nil {
		return nil, fmt.Errorf("ekv: attach %s: %w", addr, err)
	}
	c := &Client{conn: conn, first: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(c.done)
		var first sync.Once
		buf := make([]byte, 4096)
		for {
			n, err := conn.Read(buf)
			if n > 0 {
				c.mu.Lock()
				c.buf.Write(buf[:n])
				c.mu.Unlock()
			}
			if n > 0 || err != nil {
				first.Do(func() { close(c.first) })
			}
			if err != nil {
				return
			}
		}
	}()
	return c, nil
}

// Receiving is closed once the client has captured its first bytes, or the
// server has hung up. A server replays its screen to a client as it accepts
// it, so when the screen is not empty this is when the client is known to be
// attached: everything written from then on reaches it.
func (c *Client) Receiving() <-chan struct{} { return c.first }

// Done is closed when the server side hangs up (the node rebooted).
func (c *Client) Done() <-chan struct{} { return c.done }

// Screen returns everything captured so far.
func (c *Client) Screen() string {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.buf.String()
}

// WaitFor polls until the captured screen contains substr or the timeout
// elapses.
func (c *Client) WaitFor(substr string, timeout time.Duration) bool {
	deadline := time.Now().Add(timeout)
	for {
		if strings.Contains(c.Screen(), substr) {
			return true
		}
		if time.Now().After(deadline) {
			return false
		}
		select {
		case <-c.done:
			// Connection closed; one final check.
			return strings.Contains(c.Screen(), substr)
		case <-time.After(5 * time.Millisecond):
		}
	}
}

// Send transmits one input line to the installer (the "keyboard").
func (c *Client) Send(line string) error {
	_, err := io.WriteString(c.conn, line+"\n")
	return err
}

// Close detaches the client.
func (c *Client) Close() { c.conn.Close() }
