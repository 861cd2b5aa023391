package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"sync"
	"time"

	"adept/internal/service"
)

// buildDaemon compiles cmd/adeptd from the module at root into bin. The Go
// build cache makes every build after a checkout's first a staleness
// check.
func buildDaemon(ctx context.Context, root, bin string) error {
	cmd := exec.CommandContext(ctx, "go", "build", "-o", bin, "./cmd/adeptd")
	cmd.Dir = root
	if out, err := cmd.CombinedOutput(); err != nil {
		return fmt.Errorf("build adeptd in %s: %v\n%s", root, err, out)
	}
	return nil
}

// daemon is one running adeptd.
type daemon struct {
	cmd     *exec.Cmd
	base    string
	pid     string
	log     *os.File
	exited  chan struct{} // closed once Wait has returned
	waitErr error
	stopped sync.Once
	// control carries /readyz and /v1/metrics, apart from the measured
	// connection.
	control *http.Client
}

// freePort asks the kernel for an unused loopback port and releases it.
func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}

// startDaemon execs a fresh single-node adeptd with default flags on a
// free loopback port, stderr captured to logPath, and returns once
// /readyz answers 200 — or fails fast if the process exits first.
func startDaemon(bin, logPath string) (*daemon, error) {
	port, err := freePort()
	if err != nil {
		return nil, fmt.Errorf("pick port: %w", err)
	}
	logFile, err := os.Create(logPath)
	if err != nil {
		return nil, err
	}
	addr := "127.0.0.1:" + strconv.Itoa(port)
	d := &daemon{base: "http://" + addr, log: logFile, exited: make(chan struct{}), control: &http.Client{Timeout: 5 * time.Second}}
	d.cmd = exec.Command(bin, "-addr", addr, "-log-level", "error")
	d.cmd.Stdout, d.cmd.Stderr = logFile, logFile
	if err := d.cmd.Start(); err != nil {
		logFile.Close()
		return nil, fmt.Errorf("start adeptd: %w", err)
	}
	d.pid = strconv.Itoa(d.cmd.Process.Pid)
	go func() {
		d.waitErr = d.cmd.Wait()
		close(d.exited)
	}()

	for deadline := time.Now().Add(20 * time.Second); time.Now().Before(deadline); {
		select {
		case <-d.exited:
			d.stop()
			return nil, fmt.Errorf("adeptd exited before it was ready: %v (see %s)", d.waitErr, logPath)
		default:
		}
		resp, err := d.control.Get(d.base + "/readyz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return d, nil
			}
		}
		time.Sleep(2 * time.Millisecond)
	}
	d.stop()
	return nil, fmt.Errorf("adeptd not ready after 20s (see %s)", logPath)
}

// alive reports an early exit as an error.
func (d *daemon) alive() error {
	select {
	case <-d.exited:
		return fmt.Errorf("adeptd exited mid-run: %v (see %s)", d.waitErr, d.log.Name())
	default:
		return nil
	}
}

// stop kills the daemon and returns once it has been reaped; calling it
// again is a no-op.
func (d *daemon) stop() {
	d.stopped.Do(func() {
		_ = d.cmd.Process.Kill() // fails only if it already exited
		<-d.exited
		d.log.Close()
		d.control.CloseIdleConnections()
	})
}

// metrics fetches GET /v1/metrics.
func (d *daemon) metrics() (service.Report, error) {
	var rep service.Report
	resp, err := d.control.Get(d.base + "/v1/metrics")
	if err != nil {
		return rep, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return rep, fmt.Errorf("GET /v1/metrics: status %d", resp.StatusCode)
	}
	return rep, json.NewDecoder(resp.Body).Decode(&rep)
}
