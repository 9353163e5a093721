package main

import (
	"bufio"
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

// server is one neurovec process serving HTTP (serve, or a fleet router
// with its spawned replicas), started in its own process group so that
// stopping it reaches every replica too.
type server struct {
	cmd      *exec.Cmd
	url      string        // http://127.0.0.1:<port>
	setup    time.Duration // launch until /readyz answered 200
	done     chan struct{} // closed once the process has been waited for
	log      *os.File
	stopOnce sync.Once
}

// startServer launches `bin args... -addr 127.0.0.1:<free port>` and waits
// until GET /readyz answers 200. setup is measured from just before the
// process is started to that first 200, polled every millisecond.
func startServer(ctx context.Context, bin string, args []string, logPath string) (*server, error) {
	port, err := freePort()
	if err != nil {
		return nil, err
	}
	logFile, err := os.Create(logPath)
	if err != nil {
		return nil, err
	}
	addr := "127.0.0.1:" + port
	cmd := exec.Command(bin, append(args, "-addr", addr)...)
	cmd.Stdout, cmd.Stderr = logFile, logFile
	cmd.SysProcAttr = &syscall.SysProcAttr{Setpgid: true}
	s := &server{cmd: cmd, url: "http://" + addr, done: make(chan struct{}), log: logFile}
	started := time.Now()
	if err := cmd.Start(); err != nil {
		logFile.Close()
		return nil, fmt.Errorf("start %s: %w", filepath.Base(bin), err)
	}
	go func() {
		// A server that dies mid-run shows up as failed requests; its
		// log under the work directory says why.
		_ = cmd.Wait()
		close(s.done)
	}()

	client := &http.Client{Timeout: time.Second}
	deadline := started.Add(90 * time.Second)
	for {
		resp, err := client.Get(s.url + "/readyz")
		if err == nil {
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				s.setup = time.Since(started)
				return s, nil
			}
		}
		var waitErr error
		select {
		case <-s.done:
			waitErr = fmt.Errorf("%s exited before becoming ready (log: %s)", args[0], logPath)
		case <-ctx.Done():
			waitErr = ctx.Err()
		case <-time.After(time.Millisecond):
			if time.Now().After(deadline) {
				waitErr = fmt.Errorf("%s not ready after 90s (log: %s)", args[0], logPath)
			}
		}
		if waitErr != nil {
			s.stop()
			return nil, waitErr
		}
	}
}

// stop asks the process to drain (SIGTERM), and kills its whole process
// group if it has not exited within 20 seconds. It returns once the
// process and every descendant it had are gone. Later calls do nothing.
func (s *server) stop() { s.stopOnce.Do(s.terminate) }

func (s *server) terminate() {
	desc := descendants(s.cmd.Process.Pid)
	_ = s.cmd.Process.Signal(syscall.SIGTERM) // fails only if it already exited
	select {
	case <-s.done:
	case <-time.After(20 * time.Second):
		_ = syscall.Kill(-s.cmd.Process.Pid, syscall.SIGKILL)
		<-s.done
	}
	// A fleet router stops its replicas before exiting; kill any that
	// outlived it and wait for them to vanish.
	for _, pid := range desc {
		for i := 0; alive(pid); i++ {
			if i == 2000 {
				_ = syscall.Kill(pid, syscall.SIGKILL)
			}
			time.Sleep(5 * time.Millisecond)
		}
	}
	s.log.Close()
}

// pids returns the server process and its live descendants.
func (s *server) pids() []int {
	return append([]int{s.cmd.Process.Pid}, descendants(s.cmd.Process.Pid)...)
}

// peakRSSMB sums the peak resident set size (VmHWM) of the server's
// processes, in MiB.
func (s *server) peakRSSMB() (float64, error) {
	total := 0.0
	for _, pid := range s.pids() {
		kb, err := vmHWMKB(pid)
		if err != nil {
			return 0, err
		}
		total += float64(kb) / 1024
	}
	return total, nil
}

func freePort() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer l.Close()
	_, port, err := net.SplitHostPort(l.Addr().String())
	return port, err
}

// descendants lists pid's descendants from /proc/<pid>/task/*/children.
func descendants(pid int) []int {
	var out []int
	tasks, _ := filepath.Glob(fmt.Sprintf("/proc/%d/task/*/children", pid))
	for _, t := range tasks {
		b, err := os.ReadFile(t)
		if err != nil {
			continue // the task exited meanwhile
		}
		for _, f := range strings.Fields(string(b)) {
			if c, err := strconv.Atoi(f); err == nil {
				out = append(out, c)
				out = append(out, descendants(c)...)
			}
		}
	}
	return out
}

func alive(pid int) bool {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return false
	}
	// A zombie has exited; its parent has yet to reap it.
	if i := strings.LastIndexByte(string(b), ')'); i >= 0 && i+2 < len(b) {
		return b[i+2] != 'Z'
	}
	return true
}

// vmHWMKB reads a process's peak resident set size from /proc.
func vmHWMKB(pid int) (int64, error) {
	f, err := os.Open(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if v, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			return strconv.ParseInt(strings.TrimSuffix(strings.TrimSpace(v), " kB"), 10, 64)
		}
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	return 0, errors.New("no VmHWM in /proc status")
}

// promText is one scrape of a Prometheus text exposition: sample value by
// series ("name{labels}").
type promText map[string]float64

func scrape(url string) (promText, error) {
	resp, err := http.Get(url + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s/metrics: %s", url, resp.Status)
	}
	out := promText{}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		if v, err := strconv.ParseFloat(line[i+1:], 64); err == nil {
			out[line[:i]] = v
		}
	}
	return out, sc.Err()
}

// sum adds every series of the metric whose label set contains each of the
// given label="value" pairs.
func (p promText) sum(name string, labels ...string) float64 {
	total := 0.0
	for series, v := range p {
		base, rest, _ := strings.Cut(series, "{")
		if base != name {
			continue
		}
		ok := true
		for _, l := range labels {
			ok = ok && strings.Contains(rest, l)
		}
		if ok {
			total += v
		}
	}
	return total
}

// delta returns after minus before for one metric.
func delta(before, after promText, name string, labels ...string) float64 {
	return after.sum(name, labels...) - before.sum(name, labels...)
}
