package main

import (
	"bytes"
	"fmt"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// server is one running auricd process.
type server struct {
	cmd  *exec.Cmd
	base string // http://host:port
	// exited is closed once the process has ended; err holds its exit.
	exited chan struct{}
	err    error
	log    *logTail
}

// startServer execs auricd on its shipping defaults — only the listen
// address, the snapshot and the delta journal are set — and returns once
// it logs its listen address.
func startServer(bin, snap, journal string) (*server, error) {
	lt := &logTail{addr: make(chan string, 1)}
	cmd := exec.Command(bin, "-addr", "127.0.0.1:0", "-load", snap, "-journal", journal)
	cmd.Stderr = lt
	// The kernel kills auricd if the benchmark dies first, so no server
	// outlives a crashed run.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting auricd: %w", err)
	}
	s := &server{cmd: cmd, exited: make(chan struct{}), log: lt}
	go func() {
		s.err = cmd.Wait()
		close(s.exited)
	}()
	select {
	case addr := <-lt.addr:
		s.base = "http://" + addr
		return s, nil
	case <-s.exited:
		return nil, fmt.Errorf("auricd exited during start-up (%v): %s", s.err, lt.tail())
	case <-time.After(150 * time.Second):
		s.stop()
		return nil, fmt.Errorf("auricd did not listen within 150s: %s", lt.tail())
	}
}

// alive reports whether the process is still running.
func (s *server) alive() bool {
	select {
	case <-s.exited:
		return false
	default:
		return true
	}
}

// gone reports whether the process has ended, giving a process that just
// dropped its connections a moment to be reaped.
func (s *server) gone() bool {
	select {
	case <-s.exited:
		return true
	case <-time.After(500 * time.Millisecond):
		return false
	}
}

// stop asks auricd to drain and exit, kills it if it does not, and waits
// until it has ended.
func (s *server) stop() {
	if s.alive() {
		_ = s.cmd.Process.Signal(syscall.SIGTERM)
	}
	select {
	case <-s.exited:
	case <-time.After(20 * time.Second):
		_ = s.cmd.Process.Kill()
		<-s.exited
	}
}

// kill ends auricd at once, the way a crash would.
func (s *server) kill() {
	_ = s.cmd.Process.Kill()
	<-s.exited
}

// statusKB reads one kB-valued field (VmRSS, VmHWM) of /proc/<pid>/status.
func (s *server) statusKB(field string) (int64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", s.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, field+":"); ok {
			f := strings.Fields(rest)
			if len(f) == 0 {
				break
			}
			return strconv.ParseInt(f[0], 10, 64)
		}
	}
	return 0, fmt.Errorf("%s missing from /proc/%d/status", field, s.cmd.Process.Pid)
}

// firstRecommend polls POST /v1/recommend until it answers 200 — the end
// of set-up as a caller sees it.
func (s *server) firstRecommend(body []byte) error {
	client := &http.Client{Timeout: 30 * time.Second}
	deadline := time.Now().Add(150 * time.Second)
	for time.Now().Before(deadline) {
		if !s.alive() {
			return fmt.Errorf("auricd exited before its first answer (%v): %s", s.err, s.log.tail())
		}
		resp, err := client.Post(s.base+"/v1/recommend", "application/json", bytes.NewReader(body))
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		time.Sleep(2 * time.Millisecond)
	}
	return fmt.Errorf("auricd gave no 200 within 150s: %s", s.log.tail())
}

// logTail is auricd's stderr sink: it finds the "listening on" line, then
// keeps only the last few kilobytes for error messages — auricd logs one
// access line per request by default, and the benchmark must not spend
// its CPU on them.
type logTail struct {
	mu    sync.Mutex
	addr  chan string
	found bool
	buf   []byte
}

const (
	listenMarker = "auricd listening on http://"
	tailBytes    = 4 << 10
)

func (l *logTail) Write(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.buf = append(l.buf, p...)
	if !l.found {
		if i := bytes.Index(l.buf, []byte(listenMarker)); i >= 0 {
			if j := bytes.IndexByte(l.buf[i:], '\n'); j >= 0 {
				l.found = true
				l.addr <- strings.TrimSpace(string(l.buf[i+len(listenMarker) : i+j]))
			}
		}
	}
	if len(l.buf) > 2*tailBytes {
		l.buf = append(l.buf[:0], l.buf[len(l.buf)-tailBytes:]...)
	}
	return len(p), nil
}

// tail returns the last lines auricd logged.
func (l *logTail) tail() string {
	l.mu.Lock()
	defer l.mu.Unlock()
	lines := strings.Split(strings.TrimSpace(string(l.buf)), "\n")
	return strings.Join(lines[max(0, len(lines)-8):], " | ")
}
