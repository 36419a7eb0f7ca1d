package syslogd

import (
	"fmt"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestLogAndMessages(t *testing.T) {
	c := New()
	c.Log("frontend-0", "dhcpd", "DHCPDISCOVER from %s", "00:50:8b:e0:3a:a7")
	c.Log("frontend-0", "insert-ethers", "added compute-0-0")
	msgs := c.Messages()
	if len(msgs) != 2 {
		t.Fatalf("got %d messages", len(msgs))
	}
	if msgs[0].Seq >= msgs[1].Seq {
		t.Error("sequence numbers must increase")
	}
	if msgs[0].String() != "frontend-0 dhcpd: DHCPDISCOVER from 00:50:8b:e0:3a:a7" {
		t.Errorf("String = %q", msgs[0].String())
	}
}

func TestGrep(t *testing.T) {
	c := New()
	c.Log("h", "dhcpd", "DHCPDISCOVER from aa:bb")
	c.Log("h", "kernel", "eth0 up")
	c.Log("h", "dhcpd", "DHCPDISCOVER from cc:dd")
	got := c.Grep("DHCPDISCOVER")
	if len(got) != 2 {
		t.Fatalf("Grep matched %d, want 2", len(got))
	}
	if !strings.Contains(got[1].Text, "cc:dd") {
		t.Error("Grep order should be oldest first")
	}
}

func TestSubscribeReceivesLive(t *testing.T) {
	c := New()
	ch, cancel := c.Subscribe()
	defer cancel()
	c.Log("h", "t", "hello")
	select {
	case m := <-ch:
		if m.Text != "hello" {
			t.Errorf("got %q", m.Text)
		}
	case <-time.After(time.Second):
		t.Fatal("no message delivered")
	}
}

func TestSubscribeCancelIdempotent(t *testing.T) {
	c := New()
	_, cancel := c.Subscribe()
	cancel()
	cancel() // must not panic on double close
	c.Log("h", "t", "after cancel")
}

func TestSlowSubscriberDoesNotBlockLogger(t *testing.T) {
	c := New()
	_, cancel := c.Subscribe() // never drained
	defer cancel()
	done := make(chan struct{})
	go func() {
		for i := 0; i < 1000; i++ {
			c.Log("h", "t", "msg %d", i)
		}
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("logger blocked on a slow subscriber")
	}
	if len(c.Messages()) != 1000 {
		t.Errorf("collector kept %d messages, want all 1000", len(c.Messages()))
	}
}

func TestWaitForBacklog(t *testing.T) {
	c := New()
	c.Log("h", "dhcpd", "DHCPDISCOVER from aa:bb")
	m, ok := c.WaitFor(func(m Message) bool {
		return strings.Contains(m.Text, "aa:bb")
	}, 100*time.Millisecond)
	if !ok || !strings.Contains(m.Text, "aa:bb") {
		t.Errorf("WaitFor backlog = %+v, %v", m, ok)
	}
}

func TestWaitForFuture(t *testing.T) {
	c := New()
	go func() {
		time.Sleep(20 * time.Millisecond)
		c.Log("h", "dhcpd", "DHCPDISCOVER from cc:dd")
	}()
	m, ok := c.WaitFor(func(m Message) bool {
		return strings.Contains(m.Text, "cc:dd")
	}, 2*time.Second)
	if !ok || !strings.Contains(m.Text, "cc:dd") {
		t.Errorf("WaitFor future = %+v, %v", m, ok)
	}
}

func TestWaitForTimeout(t *testing.T) {
	c := New()
	start := time.Now()
	_, ok := c.WaitFor(func(Message) bool { return false }, 30*time.Millisecond)
	if ok {
		t.Error("WaitFor should have timed out")
	}
	if time.Since(start) > time.Second {
		t.Error("WaitFor overslept")
	}
}

func TestConcurrentLoggers(t *testing.T) {
	c := New()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < 100; j++ {
				c.Log("h", "t", "g%d m%d", i, j)
			}
		}(i)
	}
	wg.Wait()
	msgs := c.Messages()
	if len(msgs) != 800 {
		t.Fatalf("got %d messages, want 800", len(msgs))
	}
	seen := map[int64]bool{}
	for _, m := range msgs {
		if seen[m.Seq] {
			t.Fatalf("duplicate seq %d", m.Seq)
		}
		seen[m.Seq] = true
	}
}

// TestBacklogIsBounded: a frontend logs a few lines per install for as long
// as it runs, so what the collector keeps cannot be everything. After 100 000
// messages it holds the newest Backlog of them, in order, says how many it let
// go, and its live heap is that of a collector that logged a tenth as many.
func TestBacklogIsBounded(t *testing.T) {
	liveAfter := func(n int) (*Collector, uint64) {
		c := New()
		for i := 0; i < n; i++ {
			c.Log("frontend-0", "kickstart.cgi", "served compute-0-%d profile, message %d", i%256, i)
		}
		var m runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&m)
		return c, m.HeapAlloc
	}
	small, tenth := liveAfter(10_000)
	c, full := liveAfter(100_000)
	msgs := c.Messages()
	if len(msgs) != Backlog || c.Evicted() != 100_000-Backlog {
		t.Fatalf("kept %d messages and evicted %d of 100000, want %d kept", len(msgs), c.Evicted(), Backlog)
	}
	for i, m := range msgs {
		n := 100_000 - Backlog + i
		if m.Seq != int64(n+1) || !strings.HasSuffix(m.Text, fmt.Sprintf("message %d", n)) {
			t.Fatalf("message %d of the backlog is seq %d %q, want the %dth logged", i, m.Seq, m.Text, n)
		}
	}
	if got := c.Grep("message 99999"); len(got) != 1 {
		t.Errorf("Grep found the newest message %d times", len(got))
	}
	if _, ok := c.WaitFor(func(m Message) bool { return strings.HasSuffix(m.Text, "message 0") }, time.Millisecond); ok {
		t.Error("WaitFor's backlog pass found a message the backlog let go")
	}
	// Ten times the messages: unbounded, about 9 MB more live; bounded, none.
	if full > tenth+1<<20 {
		t.Errorf("live heap %d bytes after 100000 messages, %d after 10000", full, tenth)
	}
	runtime.KeepAlive(small)
}
