package bench

import (
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"
	"time"
)

// Schema names the result file's layout; bump it when a field changes
// meaning, so that -compare never mixes layouts.
const Schema = "rocks-bench/1"

// Env stamps a result file with where and how it was measured.
type Env struct {
	GitSHA     string  `json:"git_sha"`
	GoVersion  string  `json:"go_version"`
	GOOS       string  `json:"goos"`
	GOARCH     string  `json:"goarch"`
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	Clients    int     `json:"clients"`
	Seed       int64   `json:"seed"`
	Seconds    float64 `json:"seconds"`
	Started    string  `json:"started"`
}

// File is one invocation's record: the environment and every workload run,
// each with its sizes, wall time, operation counts and metrics.
type File struct {
	Schema    string    `json:"schema"`
	Env       Env       `json:"env"`
	Workloads []*Result `json:"workloads"`
}

// NewFile starts a result file for the given options.
func NewFile(opt Options) *File {
	clients := opt.Clients
	if clients <= 0 {
		clients = DefaultClients()
	}
	return &File{Schema: Schema, Env: Env{
		GitSHA: gitSHA(), GoVersion: runtime.Version(), GOOS: runtime.GOOS, GOARCH: runtime.GOARCH,
		NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), Clients: clients,
		Seed: opt.Seed, Seconds: opt.Seconds, Started: time.Now().UTC().Format(time.RFC3339),
	}}
}

// gitSHA is the commit the binary was built from, when anything knows it:
// the build's VCS stamp, else the working directory's HEAD. A checkout that
// is not itself a repository yields "unknown" without starting git, which
// would otherwise search the directories above the checkout.
func gitSHA() string {
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	if _, err := os.Stat(".git"); err != nil {
		return "unknown"
	}
	if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		return strings.TrimSpace(string(out))
	}
	return "unknown"
}

// Write stores the file under dir as result-<seed>-<workloads>.json, so runs
// of different seeds or workloads into one directory form a set.
func (f *File) Write(dir string) (string, error) {
	names := "all"
	if len(f.Workloads) == 1 {
		names = f.Workloads[0].Workload
		if f.Workloads[0].Trace {
			names += "-trace"
		}
	}
	data, err := json.MarshalIndent(f, "", "  ")
	if err != nil {
		return "", err
	}
	path := filepath.Join(dir, fmt.Sprintf("result-%d-%s.json", f.Env.Seed, names))
	return path, os.WriteFile(path, append(data, '\n'), 0o644)
}

// ReadSet loads every result file in dir.
func ReadSet(dir string) ([]*File, error) {
	paths, err := filepath.Glob(filepath.Join(dir, "result-*.json"))
	if err != nil {
		return nil, err
	}
	if len(paths) == 0 {
		return nil, fmt.Errorf("bench: no result-*.json files in %s", dir)
	}
	var set []*File
	for _, p := range paths {
		data, err := os.ReadFile(p)
		if err != nil {
			return nil, err
		}
		var f File
		if err := json.Unmarshal(data, &f); err != nil {
			return nil, fmt.Errorf("bench: %s: %w", p, err)
		}
		if f.Schema != Schema {
			return nil, fmt.Errorf("bench: %s has schema %q, want %q", p, f.Schema, Schema)
		}
		set = append(set, &f)
	}
	return set, nil
}

// ContractLine is the one-line JSON object a single-workload run ends with.
func (r *Result) ContractLine() string {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, map[string]value{}}
	for _, m := range r.Metrics {
		out.Metrics[m.Name] = value{m.Value, m.Unit}
	}
	data, _ := json.Marshal(out) // plain numbers and strings cannot fail to marshal
	return string(data)
}
