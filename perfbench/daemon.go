package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// daemon is one running pimentod process.
type daemon struct {
	cmd    *exec.Cmd
	base   string // http://127.0.0.1:port
	client *http.Client
	log    *os.File
	exited chan struct{}
	once   sync.Once
	// setup is exec-to-ready: documents loaded and profiles registered.
	setup time.Duration
}

// userHZ is the kernel's USER_HZ, the unit of utime/stime in
// /proc/<pid>/stat; it is 100 on every mainstream Linux build.
const userHZ = 100

// freePort asks the kernel for an unused loopback port.
func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}

// startDaemon writes the documents under dir, execs pimentod on them,
// waits until /healthz answers, registers the named profiles, and
// records the elapsed time as the set-up time.
func startDaemon(ctx context.Context, bin, dir string, in *input, conns int) (*daemon, error) {
	args := []string{}
	for _, d := range in.docs {
		path := filepath.Join(dir, d.name+".xml")
		if _, err := os.Stat(path); err != nil {
			if err := os.WriteFile(path, d.versions[0], 0o644); err != nil {
				return nil, err
			}
		}
		args = append(args, "-doc", d.name+"="+path)
	}
	if in.shards > 1 {
		args = append(args, "-shards", strconv.Itoa(in.shards))
	}
	port, err := freePort()
	if err != nil {
		return nil, fmt.Errorf("finding a free port: %w", err)
	}
	args = append(args, "-addr", fmt.Sprintf("127.0.0.1:%d", port))
	logf, err := os.OpenFile(filepath.Join(dir, "pimentod.log"), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	d := &daemon{
		base: fmt.Sprintf("http://127.0.0.1:%d", port),
		client: &http.Client{Transport: &http.Transport{
			MaxConnsPerHost:     conns,
			MaxIdleConnsPerHost: conns,
			DisableCompression:  true,
		}},
		log:    logf,
		exited: make(chan struct{}),
	}
	d.cmd = exec.Command(bin, args...)
	d.cmd.Stdout, d.cmd.Stderr = logf, logf
	// The daemon must not outlive the benchmark, even one that is killed.
	d.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	start := time.Now()
	if err := d.cmd.Start(); err != nil {
		logf.Close()
		return nil, fmt.Errorf("starting pimentod: %w", err)
	}
	go func() {
		d.cmd.Wait()
		close(d.exited)
	}()
	if err := d.waitReady(ctx, 120*time.Second); err != nil {
		d.stop()
		return nil, err
	}
	for _, p := range in.profiles {
		status, body, err := d.do(ctx, http.MethodPut, "/profiles/"+p.name, []byte(p.src))
		if err != nil || status/100 != 2 {
			d.stop()
			return nil, fmt.Errorf("registering profile %s: status %d %v %s", p.name, status, err, body)
		}
	}
	d.setup = time.Since(start)
	return d, nil
}

func (d *daemon) waitReady(ctx context.Context, limit time.Duration) error {
	deadline := time.Now().Add(limit)
	for time.Now().Before(deadline) {
		select {
		case <-d.exited:
			return errors.New("pimentod exited during start-up (see pimentod.log)")
		default:
		}
		status, _, err := d.do(ctx, http.MethodGet, "/healthz", nil)
		if err == nil && status == http.StatusOK {
			return nil
		}
		time.Sleep(2 * time.Millisecond)
	}
	return errors.New("pimentod did not become ready")
}

// do sends one request and reads the whole reply.
func (d *daemon) do(ctx context.Context, method, path string, body []byte) (int, []byte, error) {
	req, err := http.NewRequestWithContext(ctx, method, d.base+path, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	resp, err := d.client.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return resp.StatusCode, b, err
}

// stop terminates the daemon and waits for it to exit. Calling it
// again is a no-op.
func (d *daemon) stop() {
	d.once.Do(func() {
		d.cmd.Process.Signal(syscall.SIGTERM)
		select {
		case <-d.exited:
		case <-time.After(10 * time.Second):
			d.cmd.Process.Kill()
			<-d.exited
		}
		d.client.CloseIdleConnections()
		d.log.Close()
	})
}

// cpuTicks returns the daemon's user+system CPU time in USER_HZ ticks.
func (d *daemon) cpuTicks() (int64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", d.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesized command name; utime and stime are
	// fields 14 and 15 of the whole line.
	s := string(b)
	f := strings.Fields(s[strings.LastIndexByte(s, ')')+1:])
	if len(f) < 13 {
		return 0, errors.New("short /proc stat line")
	}
	u, err1 := strconv.ParseInt(f[11], 10, 64)
	st, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, errors.New("bad /proc stat line")
	}
	return u + st, nil
}

// peakRSSMB returns the daemon's VmHWM in MiB.
func (d *daemon) peakRSSMB() (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", d.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			f := strings.Fields(rest)
			kb, err := strconv.ParseFloat(f[0], 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, errors.New("no VmHWM in /proc status")
}
