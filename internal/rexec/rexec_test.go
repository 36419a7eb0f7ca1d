package rexec

import (
	"testing"

	"rocks/internal/hardware"
	"rocks/internal/node"
)

func upNode(name string) *node.Node {
	macs := hardware.NewMACAllocator()
	n := node.New(hardware.PIIICompute(macs, 733))
	n.SetName(name)
	n.SetState(node.StateUp)
	return n
}

func TestEnvPropagation(t *testing.T) {
	d := NewDaemon("compute-0-0", upNode("compute-0-0"))
	req := Request{Command: "printenv PATH", Env: map[string]string{"PATH": "/usr/local/bin:/usr/bin"}}
	res := d.Run(req)
	if res.Err != nil || res.Stdout != "/usr/local/bin:/usr/bin\n" {
		t.Errorf("printenv = %+v", res)
	}
	res = d.Run(Request{Command: "printenv MISSING", Env: map[string]string{}})
	if res.Err == nil {
		t.Error("missing env var should fail")
	}
	res = d.Run(Request{Command: "printenv", Env: map[string]string{"B": "2", "A": "1"}})
	if res.Stdout != "A=1\nB=2\n" {
		t.Errorf("printenv all = %q", res.Stdout)
	}
}

func TestUIDCwdPropagation(t *testing.T) {
	d := NewDaemon("c0", upNode("c0"))
	res := d.Run(Request{Command: "id", UID: 500, GID: 501})
	if res.Stdout != "uid=500 gid=501\n" {
		t.Errorf("id = %q", res.Stdout)
	}
	res = d.Run(Request{Command: "pwd", Cwd: "/home/bruno/project"})
	if res.Stdout != "/home/bruno/project\n" {
		t.Errorf("pwd = %q", res.Stdout)
	}
	if out := d.Run(Request{Command: "pwd"}); out.Stdout != "/\n" {
		t.Errorf("default cwd = %q", out.Stdout)
	}
}

func TestStdinRedirection(t *testing.T) {
	d := NewDaemon("c0", upNode("c0"))
	res := d.Run(Request{Command: "cat -", Stdin: "piped input\n"})
	if res.Stdout != "piped input\n" {
		t.Errorf("stdin redirect = %q", res.Stdout)
	}
}

func TestRemoteCommandPassthrough(t *testing.T) {
	n := upNode("compute-0-0")
	d := NewDaemon("compute-0-0", n)
	res := d.Run(Request{Command: "hostname"})
	if res.Err != nil || res.Stdout != "compute-0-0\n" {
		t.Errorf("hostname = %+v", res)
	}
	res = d.Run(Request{Command: "no-such-binary"})
	if res.Err == nil || res.Stderr == "" {
		t.Errorf("missing binary should fail with stderr: %+v", res)
	}
	res = d.Run(Request{Command: ""})
	if res.Err == nil {
		t.Error("empty command accepted")
	}
}

func TestSignalForwarding(t *testing.T) {
	n := upNode("c0")
	d := NewDaemon("c0", n)
	if _, err := n.Exec("spawn simulation"); err != nil {
		t.Fatal(err)
	}
	if _, err := n.Exec("spawn simulation"); err != nil {
		t.Fatal(err)
	}
	// Non-fatal signal: process survives.
	if killed, err := d.Signal("USR1", "simulation"); err != nil || killed != 0 {
		t.Errorf("USR1 = %d, %v", killed, err)
	}
	if len(n.Processes()) != 2 {
		t.Error("USR1 killed the job")
	}
	// KILL is forwarded and terminates both instances.
	killed, err := d.Signal("KILL", "simulation")
	if err != nil || killed != 2 {
		t.Errorf("KILL = %d, %v", killed, err)
	}
	if len(n.Processes()) != 0 {
		t.Error("processes survived KILL")
	}
}
