package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// median returns the middle value (mean of the middle two for an even
// count) of xs, or 0 for none.
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

// procRun is one timed child process.
type procRun struct {
	Wall   time.Duration
	CPU    time.Duration // user + system
	RSSMB  float64       // peak resident set
	Steal  time.Duration // machine-wide CPU time the hypervisor took meanwhile
	Stdout []byte
	Stderr []byte
	Exit   int
}

// runProc runs a command to completion in its own process and measures
// it from outside: wall time, rusage CPU and peak RSS. A non-zero exit
// is reported in Exit, not as an error.
func runProc(name string, args ...string) (*procRun, error) {
	cmd := exec.Command(name, args...)
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	steal := stealTime()
	start := time.Now()
	err := cmd.Run()
	wall := time.Since(start)
	if cmd.ProcessState == nil {
		return nil, fmt.Errorf("running %s: %w", filepath.Base(name), err)
	}
	r := &procRun{Wall: wall, Steal: stealTime() - steal, Stdout: stdout.Bytes(), Stderr: stderr.Bytes(), Exit: cmd.ProcessState.ExitCode()}
	if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		r.CPU = time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
		r.RSSMB = float64(ru.Maxrss) / 1024 // kilobytes on Linux
	}
	return r, nil
}

// stealTime is the CPU time the hypervisor has taken from this machine
// since boot (the steal column of /proc/stat), or 0 where unknown. A
// repeat that loses much of its wall time to steal ran on a busy host.
func stealTime() time.Duration {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	line, _, _ := strings.Cut(string(data), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0
	}
	ticks, err := strconv.ParseInt(f[8], 10, 64)
	if err != nil {
		return 0
	}
	return time.Duration(ticks) * time.Second / 100 // USER_HZ
}

// treeDigests hashes every regular file under dir, keyed by its path
// relative to dir.
func treeDigests(dir string) (map[string]string, error) {
	out := make(map[string]string)
	err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		sum, err := fileDigest(path)
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(dir, path)
		if err != nil {
			return err
		}
		out[filepath.ToSlash(rel)] = sum
		return nil
	})
	return out, err
}

// fileDigest hashes one file's contents.
func fileDigest(path string) (string, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:]), nil
}

// digestOf folds a set of file digests into one.
func digestOf(files map[string]string) string {
	names := make([]string, 0, len(files))
	for n := range files {
		names = append(names, n)
	}
	sort.Strings(names)
	h := sha256.New()
	for _, n := range names {
		fmt.Fprintf(h, "%s %s\n", n, files[n])
	}
	return hex.EncodeToString(h.Sum(nil))
}

// Env is the environment stamp every result carries, so an A/B run on a
// busy machine is visible as such.
type Env struct {
	Commit       string  `json:"commit"`
	SourceSHA256 string  `json:"source_sha256"`
	GoVersion    string  `json:"go_version"`
	NumCPU       int     `json:"nproc"`
	GOMAXPROCS   int     `json:"gomaxprocs"`
	CPUModel     string  `json:"cpu_model"`
	LoadAvg1     float64 `json:"loadavg_1m"`
}

// stampEnv records the environment. Outside a git checkout the commit
// is "unknown"; the source digest still identifies the code measured.
func stampEnv(root string) Env {
	e := Env{
		Commit:     "unknown",
		GoVersion:  runtime.Version(),
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		CPUModel:   "unknown",
	}
	if out, err := exec.Command("git", "-C", root, "rev-parse", "HEAD").Output(); err == nil {
		e.Commit = strings.TrimSpace(string(out))
	}
	if src, err := sourceDigest(root); err == nil {
		e.SourceSHA256 = src
	}
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				e.CPUModel = strings.TrimSpace(v)
				break
			}
		}
	}
	var si syscall.Sysinfo_t
	if syscall.Sysinfo(&si) == nil {
		e.LoadAvg1 = float64(si.Loads[0]) / (1 << 16)
	}
	return e
}

// sourceDigest hashes the Go sources and module files under root,
// skipping the build directory.
func sourceDigest(root string) (string, error) {
	files := make(map[string]string)
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if name := d.Name(); path != root && (strings.HasPrefix(name, ".") || name == "results") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") && d.Name() != "go.mod" {
			return nil
		}
		sum, err := fileDigest(path)
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(root, path)
		files[rel] = sum
		return nil
	})
	if err != nil {
		return "", err
	}
	return digestOf(files), nil
}
