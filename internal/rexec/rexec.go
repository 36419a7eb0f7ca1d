// Package rexec reproduces UC Berkeley's REXEC remote execution system as
// Rocks ships it (§4.1): "transparent, secure remote execution of parallel
// and sequential jobs", with propagation of the local environment
// (environment variables, user ID, group ID, current working directory),
// redirection of stdin/stdout/stderr from each parallel process, and remote
// forwarding of signals.
package rexec

import (
	"fmt"
	"sort"
	"strings"
)

// Executor runs a command on one machine; *node.Node satisfies it.
type Executor interface {
	Exec(cmd string) (string, error)
}

// Request is one remote execution with the local context REXEC propagates.
type Request struct {
	Command string
	Env     map[string]string
	UID     int
	GID     int
	Cwd     string
	Stdin   string
}

// Result is the outcome on one host, with redirected streams.
type Result struct {
	Host   string
	Stdout string
	Stderr string
	Err    error
}

// Daemon is rexecd on one machine.
type Daemon struct {
	host string
	exec Executor
}

// NewDaemon wraps a machine's executor.
func NewDaemon(host string, exec Executor) *Daemon {
	return &Daemon{host: host, exec: exec}
}

// Host returns the daemon's machine name.
func (d *Daemon) Host() string { return d.host }

// Run executes one request, emulating the context propagation REXEC
// performs: printenv/pwd/id answer from the *client's* environment, which
// is the observable effect of propagating env, cwd, and credentials.
func (d *Daemon) Run(req Request) Result {
	res := Result{Host: d.host}
	fields := strings.Fields(req.Command)
	if len(fields) == 0 {
		res.Err = fmt.Errorf("rexec: empty command")
		res.Stderr = res.Err.Error()
		return res
	}
	switch fields[0] {
	case "printenv":
		if len(fields) == 1 {
			keys := make([]string, 0, len(req.Env))
			for k := range req.Env {
				keys = append(keys, k)
			}
			sort.Strings(keys)
			var b strings.Builder
			for _, k := range keys {
				fmt.Fprintf(&b, "%s=%s\n", k, req.Env[k])
			}
			res.Stdout = b.String()
			return res
		}
		v, ok := req.Env[fields[1]]
		if !ok {
			res.Err = fmt.Errorf("rexec: %s not set", fields[1])
			res.Stderr = res.Err.Error()
			return res
		}
		res.Stdout = v + "\n"
		return res
	case "pwd":
		cwd := req.Cwd
		if cwd == "" {
			cwd = "/"
		}
		res.Stdout = cwd + "\n"
		return res
	case "id":
		res.Stdout = fmt.Sprintf("uid=%d gid=%d\n", req.UID, req.GID)
		return res
	case "cat":
		if len(fields) == 2 && fields[1] == "-" {
			// stdin redirection: echo the forwarded stream back.
			res.Stdout = req.Stdin
			return res
		}
	}
	out, err := d.exec.Exec(req.Command)
	res.Stdout = out
	res.Err = err
	if err != nil {
		res.Stderr = err.Error()
	}
	return res
}

// Signal forwards a signal to a named process on the daemon's machine —
// REXEC's "sophisticated signal handling system". KILL/TERM/INT terminate
// the process; other signals are delivered as no-ops.
func (d *Daemon) Signal(sig, process string) (int, error) {
	switch sig {
	case "KILL", "TERM", "INT", "SIGKILL", "SIGTERM", "SIGINT":
		out, err := d.exec.Exec("kill " + process)
		if err != nil {
			return 0, err
		}
		var n int
		fmt.Sscanf(out, "killed %d", &n)
		return n, nil
	default:
		// Delivered but non-fatal (e.g. USR1).
		return 0, nil
	}
}
