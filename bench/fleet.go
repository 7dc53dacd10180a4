package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"

	"calibsched/internal/cluster"
	"calibsched/internal/server"
	"calibsched/internal/store"
)

// fleet is the system under test for one workload: the daemons behind
// base, either spawned as processes or, under -quick, served in-process.
type fleet struct {
	base  string
	procs []*proc
	stops []func() // in-process teardown, run in reverse order
}

// stop kills every daemon (SIGKILL for processes) and waits for each.
func (f *fleet) stop() {
	for _, p := range f.procs {
		p.kill()
	}
	for i := len(f.stops) - 1; i >= 0; i-- {
		f.stops[i]()
	}
	f.procs, f.stops = nil, nil
}

// rssMB sums the peak resident set (VmHWM) of the fleet's processes; an
// in-process fleet reports the benchmark's own.
func (f *fleet) rssMB() (float64, error) {
	if len(f.procs) == 0 {
		kb, err := readHWM("self")
		return float64(kb) / 1024, err
	}
	var kb int64
	for _, p := range f.procs {
		n, err := readHWM(strconv.Itoa(p.cmd.Process.Pid))
		if err != nil {
			return 0, err
		}
		kb += n
	}
	return float64(kb) / 1024, nil
}

func readHWM(pid string) (int64, error) {
	fh, err := os.Open(filepath.Join("/proc", pid, "status"))
	if err != nil {
		return 0, err
	}
	defer fh.Close()
	sc := bufio.NewScanner(fh)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			return strconv.ParseInt(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 10, 64)
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%s/status", pid)
}

// launcher brings up a workload's daemons and waits until they are ready.
// A durable workload's daemon serves dataDir, so launching again after a
// kill recovers the previous daemon's state.
type launcher interface {
	launch(wl workload, dataDir string) (*fleet, error)
}

// buildDaemons compiles calibserved and calibgate from the source tree at
// root into bin.
func buildDaemons(root, bin string) error {
	if err := os.MkdirAll(bin, 0o755); err != nil {
		return err
	}
	cmd := exec.Command("go", "build", "-o", bin+string(os.PathSeparator), "./cmd/calibserved", "./cmd/calibgate")
	cmd.Dir = root
	cmd.Stdout, cmd.Stderr = os.Stderr, os.Stderr
	if err := cmd.Run(); err != nil {
		return fmt.Errorf("building daemons: %w", err)
	}
	return nil
}

// procLauncher spawns the built binaries with their default flags, each
// pinned to GOMAXPROCS=2 so results do not depend on the host's CPU count.
type procLauncher struct{ bin string }

func (l procLauncher) launch(wl workload, dataDir string) (*fleet, error) {
	f := &fleet{}
	var err error
	switch {
	case wl.gateway:
		err = l.launchGateway(f)
	case wl.durable:
		f.base, err = l.served(f, "-data-dir", dataDir, "-fsync", "always")
		if err == nil {
			err = waitReady(f.procs[0], f.base+"/readyz", 0)
		}
	default:
		f.base, err = l.served(f)
		if err == nil {
			err = waitReady(f.procs[0], f.base+"/readyz", 0)
		}
	}
	if err != nil {
		f.stop()
		return nil, err
	}
	return f, nil
}

// launchGateway starts two in-memory calibserved nodes and a calibgate in
// front of them. The gateway is ready once it counts both nodes ready.
func (l procLauncher) launchGateway(f *fleet) error {
	var nodes []string
	for i := 0; i < 2; i++ {
		base, err := l.served(f)
		if err != nil {
			return err
		}
		nodes = append(nodes, base)
	}
	for i, base := range nodes {
		if err := waitReady(f.procs[i], base+"/readyz", 0); err != nil {
			return err
		}
	}
	addr, err := freeAddr()
	if err != nil {
		return err
	}
	p, err := spawn(filepath.Join(l.bin, "calibgate"), "listening", "-addr", addr, "-backends", strings.Join(nodes, ","))
	if err != nil {
		return err
	}
	f.procs = append(f.procs, p)
	f.base = "http://" + addr
	return waitReady(p, f.base+"/healthz", len(nodes))
}

// served spawns one calibserved with extra flags and returns its base URL.
func (l procLauncher) served(f *fleet, args ...string) (string, error) {
	addr, err := freeAddr()
	if err != nil {
		return "", err
	}
	p, err := spawn(filepath.Join(l.bin, "calibserved"), "serving", append([]string{"-addr", addr}, args...)...)
	if err != nil {
		return "", err
	}
	f.procs = append(f.procs, p)
	return "http://" + addr, nil
}

// copyDir copies the directories and regular files under src to dst.
func copyDir(src, dst string) error {
	return filepath.WalkDir(src, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		to := filepath.Join(dst, rel)
		if d.IsDir() {
			return os.MkdirAll(to, 0o755)
		}
		if !d.Type().IsRegular() {
			return nil
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		return os.WriteFile(to, data, 0o644)
	})
}

// freeAddr reserves a loopback port for a daemon to listen on.
func freeAddr() (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	addr := ln.Addr().String()
	return addr, ln.Close()
}

// proc is one spawned daemon.
type proc struct {
	cmd    *exec.Cmd
	up     chan struct{} // closed when the daemon logs upMsg
	exited chan struct{}
	err    error
}

// spawn starts bin and watches its JSON log on standard error for the
// line whose message is upMsg: calibserved logs "serving" once boot-time
// recovery is done, calibgate "listening" once its listener is open.
func spawn(bin, upMsg string, args ...string) (*proc, error) {
	cmd := exec.Command(bin, args...)
	cmd.Env = append(os.Environ(), "GOMAXPROCS=2")
	// The kernel kills the daemon if the benchmark dies first.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	p := &proc{cmd: cmd, up: make(chan struct{}), exited: make(chan struct{})}
	cmd.Stderr = &logWatch{msg: []byte(`"msg":"` + upMsg + `"`), hit: p.up}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting %s: %w", filepath.Base(bin), err)
	}
	go func() {
		p.err = cmd.Wait()
		close(p.exited)
	}()
	return p, nil
}

// logWatch consumes a daemon's log and closes hit at the first line that
// holds msg; everything else is discarded.
type logWatch struct {
	msg  []byte
	hit  chan struct{}
	line []byte
	seen bool
}

func (w *logWatch) Write(b []byte) (int, error) {
	if w.seen {
		return len(b), nil
	}
	w.line = append(w.line, b...)
	for {
		i := bytes.IndexByte(w.line, '\n')
		if i < 0 {
			return len(b), nil
		}
		if bytes.Contains(w.line[:i], w.msg) {
			w.seen, w.line = true, nil
			close(w.hit)
			return len(b), nil
		}
		w.line = w.line[i+1:]
	}
}

// kill sends SIGKILL and waits for the process to exit.
func (p *proc) kill() {
	if err := p.cmd.Process.Kill(); err != nil && !errors.Is(err, os.ErrProcessDone) {
		fmt.Fprintf(os.Stderr, "calibperf: killing %s: %v\n", filepath.Base(p.cmd.Path), err)
	}
	<-p.exited
}

// probe is the readiness client; no keep-alive, so it never holds a
// connection to a daemon that is about to be killed.
var probe = &http.Client{Timeout: time.Second, Transport: &http.Transport{DisableKeepAlives: true}}

const bootTimeout = 60 * time.Second

// waitReady waits for the daemon's log line that it is up, then until
// url answers 200 and, when nodes > 0, reports that many ready nodes (the
// gateway's /healthz). Polling from the start would either wake on the
// host's coarse (about 1 ms) timer tick, quantizing setup_s, or spin and
// take a CPU from the daemon it waits for; the log line wakes the wait
// at once. It fails early if the daemon exits.
func waitReady(p *proc, url string, nodes int) error {
	name := filepath.Base(p.cmd.Path)
	timeout := time.NewTimer(bootTimeout)
	defer timeout.Stop()
	select {
	case <-p.up:
	case <-p.exited:
		return fmt.Errorf("%s exited before it was ready: %v", name, p.err)
	case <-timeout.C:
		return fmt.Errorf("%s not up after %s", name, bootTimeout)
	}
	for {
		if ok, err := ready(url, nodes); err == nil && ok {
			return nil
		}
		select {
		case <-p.exited:
			return fmt.Errorf("%s exited before it was ready: %v", name, p.err)
		case <-timeout.C:
			return fmt.Errorf("%s not ready at %s after %s", name, url, bootTimeout)
		case <-time.After(time.Millisecond):
		}
	}
}

func ready(url string, nodes int) (bool, error) {
	resp, err := probe.Get(url)
	if err != nil {
		return false, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return false, nil
	}
	if nodes == 0 {
		return true, nil
	}
	var h struct {
		Ready int `json:"ready"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		return false, err
	}
	return h.Ready == nodes, nil
}

// inProcLauncher serves the workload from httptest servers inside the
// benchmark process: the -quick smoke mode and the test suite. Stopping a
// durable fleet settles it gracefully instead of killing it.
type inProcLauncher struct{}

func (inProcLauncher) launch(wl workload, dataDir string) (*fleet, error) {
	f := &fleet{}
	serve := func(cfg server.Config) (string, error) {
		srv, err := server.New(cfg)
		if err != nil {
			return "", err
		}
		url, stop := loopback(srv, srv)
		f.stops = append(f.stops, stop)
		return url, nil
	}
	var err error
	switch {
	case wl.gateway:
		var a, b string
		if a, err = serve(server.Config{}); err != nil {
			break
		}
		if b, err = serve(server.Config{}); err != nil {
			break
		}
		var g *cluster.Gateway
		if g, err = cluster.NewGateway(cluster.Options{Backends: []string{a, b}}); err != nil {
			break
		}
		ts := httptest.NewServer(g)
		f.stops = append(f.stops, g.Close, ts.Close)
		f.base = ts.URL
	case wl.durable:
		var st *store.Store
		if st, err = store.Open(dataDir, store.Options{Fsync: store.FsyncAlways, GroupCommit: true}); err != nil {
			break
		}
		f.stops = append(f.stops, st.Close)
		f.base, err = serve(server.Config{Store: st})
	default:
		f.base, err = serve(server.Config{})
	}
	if err != nil {
		f.stop()
		return nil, err
	}
	return f, nil
}

// loopback serves h, which fronts srv, from a loopback httptest server.
// stop closes the listener and drains srv.
func loopback(srv *server.Server, h http.Handler) (url string, stop func()) {
	ts := httptest.NewServer(h)
	return ts.URL, func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			fmt.Fprintln(os.Stderr, "calibperf: shutting down in-process server:", err)
		}
	}
}
