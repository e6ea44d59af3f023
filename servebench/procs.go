package main

import (
	"bytes"
	"context"
	"encoding/json"
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

	"matstore/internal/service"
)

// server is one running csserve process.
type server struct {
	name string
	url  string
	args []string
	cmd  *exec.Cmd
	log  *os.File
	done chan struct{} // closed once cmd.Wait returns
}

// fleet is the set of csserve processes one setup launched; front is the one
// clients talk to (the engine, or the coordinator over the shards).
type fleet struct {
	procs   []*server
	engines []*server // the processes executing queries (not the coordinator)
	front   *server
}

// tracker remembers every process started so an early exit can stop them.
var tracker struct {
	sync.Mutex
	live map[*server]bool
}

// freePort asks the kernel for an unused loopback port.
func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}

// startServer launches csserve with the given extra flags on a fresh
// loopback port, logging to logDir/name.log.
func startServer(bin, name, logDir string, flags ...string) (*server, error) {
	port, err := freePort()
	if err != nil {
		return nil, err
	}
	addr := fmt.Sprintf("127.0.0.1:%d", port)
	args := append(append([]string{}, flags...), "-addr", addr)
	lf, err := os.Create(filepath.Join(logDir, name+".log"))
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(bin, args...)
	cmd.Stdout, cmd.Stderr = lf, lf
	if err := cmd.Start(); err != nil {
		lf.Close()
		return nil, fmt.Errorf("start %s: %w", name, err)
	}
	s := &server{name: name, url: "http://" + addr, args: args, cmd: cmd, log: lf, done: make(chan struct{})}
	go func() {
		_ = cmd.Wait() // the exit status is irrelevant: stop() decides when it ends
		close(s.done)
	}()
	tracker.Lock()
	if tracker.live == nil {
		tracker.live = map[*server]bool{}
	}
	tracker.live[s] = true
	tracker.Unlock()
	return s, nil
}

// stop sends SIGTERM (csserve drains and exits), escalates to SIGKILL after
// a grace period, and returns once the process has ended.
func (s *server) stop() {
	_ = s.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-s.done:
	case <-time.After(10 * time.Second):
		_ = s.cmd.Process.Kill()
		<-s.done
	}
	s.log.Close()
	tracker.Lock()
	delete(tracker.live, s)
	tracker.Unlock()
}

// stopAll stops every process still running.
func stopAll() {
	tracker.Lock()
	var live []*server
	for s := range tracker.live {
		live = append(live, s)
	}
	tracker.Unlock()
	for _, s := range live {
		s.stop()
	}
}

// waitReady polls GET /readyz until it answers 200, the process exits, or
// the deadline passes.
func (s *server) waitReady(ctx context.Context) error {
	client := &http.Client{Timeout: time.Second}
	for {
		req, _ := http.NewRequestWithContext(ctx, http.MethodGet, s.url+"/readyz", nil)
		resp, err := client.Do(req)
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		select {
		case <-s.done:
			return fmt.Errorf("%s exited before ready; see its log", s.name)
		case <-ctx.Done():
			return fmt.Errorf("%s not ready: %w", s.name, ctx.Err())
		case <-time.After(2 * time.Millisecond):
		}
	}
}

func (f *fleet) stop() {
	for i := len(f.procs) - 1; i >= 0; i-- {
		f.procs[i].stop()
	}
}

// clkTck is USER_HZ, the unit of /proc/<pid>/stat CPU times; it is 100 on
// every Linux architecture Go supports.
const clkTck = 100

// cpuMillis returns the process's user+system CPU time from /proc.
func (s *server) cpuMillis() (float64, error) {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", s.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesised command name; utime and stime are the
	// 14th and 15th fields of the whole line.
	i := bytes.LastIndexByte(raw, ')')
	if i < 0 {
		return 0, errors.New("malformed /proc stat")
	}
	f := strings.Fields(string(raw[i+1:]))
	if len(f) < 13 {
		return 0, errors.New("short /proc stat")
	}
	ut, err1 := strconv.ParseInt(f[11], 10, 64)
	st, err2 := strconv.ParseInt(f[12], 10, 64)
	if err := errors.Join(err1, err2); err != nil {
		return 0, err
	}
	return float64(ut+st) * 1000 / clkTck, nil
}

// peakRSSMB returns the process's peak resident set (VmHWM) in MiB.
func (s *server) peakRSSMB() (float64, error) {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", s.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			f := strings.Fields(rest)
			if len(f) == 0 {
				break
			}
			kb, err := strconv.ParseFloat(f[0], 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, errors.New("no VmHWM in /proc status")
}

func (f *fleet) cpuMillis() (float64, error) {
	var sum float64
	for _, s := range f.procs {
		v, err := s.cpuMillis()
		if err != nil {
			return 0, err
		}
		sum += v
	}
	return sum, nil
}

func (f *fleet) peakRSSMB() (float64, error) {
	var sum float64
	for _, s := range f.procs {
		v, err := s.peakRSSMB()
		if err != nil {
			return 0, err
		}
		sum += v
	}
	return sum, nil
}

// argv returns every process's command line, for the provenance record.
func (f *fleet) argv() [][]string {
	var out [][]string
	for _, s := range f.procs {
		out = append(out, append([]string{"csserve"}, s.args...))
	}
	return out
}

// engineStats fetches /stats from every engine process.
func (f *fleet) engineStats() ([]service.Stats, error) {
	var out []service.Stats
	for _, s := range f.engines {
		raw, err := getBody(s.url + "/stats")
		if err != nil {
			return nil, err
		}
		var st service.Stats
		if err := json.Unmarshal(raw, &st); err != nil {
			return nil, fmt.Errorf("%s /stats: %w", s.name, err)
		}
		out = append(out, st)
	}
	return out, nil
}
