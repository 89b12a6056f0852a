package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io/fs"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	"repro/internal/server"
)

// stamp identifies the host and build a result was measured on.
type stamp struct {
	NumCPU      int     `json:"nproc"`
	GOMAXPROCS  int     `json:"gomaxprocs"`
	GoVersion   string  `json:"go_version"`
	Commit      string  `json:"commit"`
	SourceHash  string  `json:"source_sha256"`
	ClockPairNS float64 `json:"clock_pair_ns"`
	Clocksource string  `json:"clocksource"`
	Workload    string  `json:"workload"`
	Seed        int64   `json:"seed"`
	Seconds     int     `json:"seconds"`
	Clients     int     `json:"clients"`
}

func hostStamp(cfg config) string {
	st := stamp{
		NumCPU:      runtime.NumCPU(),
		GOMAXPROCS:  runtime.GOMAXPROCS(0),
		GoVersion:   runtime.Version(),
		Commit:      gitCommit(cfg.root),
		SourceHash:  sourceHash(cfg.root),
		ClockPairNS: clockPairNS(),
		Clocksource: clocksource(),
		Workload:    cfg.workload,
		Seed:        cfg.seed,
		Seconds:     cfg.seconds,
		Clients:     cfg.clients,
	}
	b, err := json.Marshal(st)
	if err != nil {
		panic(err)
	}
	return string(b)
}

// gitCommit is HEAD when the checkout is itself the top of a git
// repository, else "none" (the source hash still identifies the build).
func gitCommit(root string) string {
	out, err := exec.Command("git", "-C", root, "rev-parse", "--show-toplevel", "HEAD").Output()
	if err != nil {
		return "none"
	}
	f := strings.Fields(string(out))
	top, err1 := filepath.EvalSymlinks(f[0])
	abs, err2 := filepath.Abs(root)
	if err2 == nil {
		abs, err2 = filepath.EvalSymlinks(abs)
	}
	if len(f) != 2 || err1 != nil || err2 != nil || top != abs {
		return "none"
	}
	return f[1]
}

// sourceHash identifies the measured program without git: a digest of
// every .go file and go.mod of the main module, by path and content.
func sourceHash(root string) string {
	var files []string
	filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() && strings.HasPrefix(d.Name(), ".") && path != root {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(path, ".go") || d.Name() == "go.mod") {
			files = append(files, path)
		}
		return nil
	})
	sort.Strings(files)
	h := sha256.New()
	for _, f := range files {
		b, err := os.ReadFile(f)
		if err != nil {
			continue
		}
		rel, _ := filepath.Rel(root, f)
		fmt.Fprintf(h, "%s\x00%d\x00", rel, len(b))
		h.Write(b)
	}
	return hex.EncodeToString(h.Sum(nil)[:12])
}

// clockPairNS is the measured cost of one time.Now + time.Since pair.
func clockPairNS() float64 {
	const n = 200000
	var sink time.Duration
	start := time.Now()
	for i := 0; i < n; i++ {
		sink += time.Since(time.Now())
	}
	_ = sink
	return float64(time.Since(start).Nanoseconds()) / n
}

func clocksource() string {
	b, err := os.ReadFile("/sys/devices/system/clocksource/clocksource0/current_clocksource")
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(b))
}

// serverStats is the part of /statsz the benchmark reads.
type serverStats struct {
	Cache server.CacheStats `json:"cache"`
}

func statsz(ctx context.Context, d *daemon) (serverStats, error) {
	var st serverStats
	status, body, err := d.do(ctx, http.MethodGet, "/statsz", nil)
	if err != nil {
		return st, err
	}
	if status != http.StatusOK {
		return st, fmt.Errorf("/statsz: status %d", status)
	}
	err = json.Unmarshal(body, &st)
	return st, err
}

func (a serverStats) delta(b serverStats) string {
	return fmt.Sprintf("hits %d, coalesced %d, misses %d, evictions %d, invalidations %d",
		a.Cache.Hits-b.Cache.Hits, a.Cache.Coalesced-b.Cache.Coalesced, a.Cache.Misses-b.Cache.Misses,
		a.Cache.Evictions-b.Cache.Evictions, a.Cache.Invalidations-b.Cache.Invalidations)
}

// execOutput runs a command and returns its standard output; standard
// error is folded into the error.
func execOutput(ctx context.Context, name string, args ...string) (string, error) {
	var stderr strings.Builder
	cmd := exec.CommandContext(ctx, name, args...)
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return "", fmt.Errorf("%w: %s", err, stderr.String())
	}
	return string(out), nil
}
