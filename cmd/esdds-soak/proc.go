package main

import (
	"context"
	"fmt"
	"io"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// procCluster is a set of spawned esdds-node daemons: the "real
// multi-process TCP cluster" mode of the soak.
type procCluster struct {
	procs       []*exec.Cmd
	addrs       map[int]string // node id -> listen address
	metricsURLs map[int]string // node id -> http://host:port
	logDir      string
	logs        []*os.File
}

// freeAddrs reserves n distinct loopback ports by binding and
// immediately releasing them — the standard (slightly racy, fine on a
// single host) port pre-allocation.
func freeAddrs(n int) ([]string, error) {
	addrs := make([]string, 0, n)
	listeners := make([]net.Listener, 0, n)
	defer func() {
		for _, l := range listeners {
			l.Close()
		}
	}()
	for i := 0; i < n; i++ {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		listeners = append(listeners, l)
		addrs = append(addrs, l.Addr().String())
	}
	return addrs, nil
}

// startProcCluster spawns n esdds-node daemons on pre-allocated ports,
// waits for every main and metrics listener to come up, and returns
// the handles. Daemon output goes to per-node log files under logDir.
func startProcCluster(ctx context.Context, n int, nodeBin, logDir string, stderr io.Writer) (*procCluster, error) {
	if nodeBin == "" {
		path, err := exec.LookPath("esdds-node")
		if err != nil {
			return nil, fmt.Errorf("esdds-node not in PATH; pass -node-bin (build it with `go build ./cmd/esdds-node`)")
		}
		nodeBin = path
	}
	if logDir == "" {
		dir, err := os.MkdirTemp("", "esdds-soak-*")
		if err != nil {
			return nil, err
		}
		logDir = dir
	} else if err := os.MkdirAll(logDir, 0o755); err != nil {
		return nil, err
	}

	ports, err := freeAddrs(2 * n)
	if err != nil {
		return nil, err
	}
	mainAddrs, metricsAddrs := ports[:n], ports[n:]
	peers := strings.Join(mainAddrs, ",")

	pc := &procCluster{
		addrs:       make(map[int]string, n),
		metricsURLs: make(map[int]string, n),
		logDir:      logDir,
	}
	for i := 0; i < n; i++ {
		logF, err := os.Create(filepath.Join(logDir, "node-"+strconv.Itoa(i)+".log"))
		if err != nil {
			pc.stop()
			return nil, err
		}
		pc.logs = append(pc.logs, logF)
		cmd := exec.CommandContext(ctx, nodeBin,
			"-id", strconv.Itoa(i),
			"-listen", mainAddrs[i],
			"-peers", peers,
			"-metrics-addr", metricsAddrs[i],
		)
		// Pin the daemons' GC pacing to the same setting the soak client
		// uses (see run): baselines stay comparable across hosts whose
		// ambient GOGC differs, and the soak measures the store, not the
		// collector's default assist pacing.
		cmd.Env = append(os.Environ(), "GOGC="+strconv.Itoa(soakGCPercent))
		cmd.Stdout = logF
		cmd.Stderr = logF
		cmd.Cancel = func() error { return cmd.Process.Signal(syscall.SIGTERM) }
		if err := cmd.Start(); err != nil {
			pc.stop()
			return nil, fmt.Errorf("spawning node %d: %w", i, err)
		}
		pc.procs = append(pc.procs, cmd)
		pc.addrs[i] = mainAddrs[i]
		pc.metricsURLs[i] = "http://" + metricsAddrs[i]
	}

	// Readiness: every daemon must accept on both its listeners.
	deadline := time.Now().Add(15 * time.Second)
	for i := 0; i < n; i++ {
		for _, addr := range []string{mainAddrs[i], metricsAddrs[i]} {
			if err := waitListening(ctx, addr, deadline); err != nil {
				fmt.Fprintf(stderr, "esdds-soak: node %d not ready on %s (see %s)\n",
					i, addr, filepath.Join(logDir, "node-"+strconv.Itoa(i)+".log"))
				pc.stop()
				return nil, err
			}
		}
	}
	return pc, nil
}

func waitListening(ctx context.Context, addr string, deadline time.Time) error {
	for {
		conn, err := net.DialTimeout("tcp", addr, 250*time.Millisecond)
		if err == nil {
			conn.Close()
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("timeout waiting for %s: %w", addr, err)
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(100 * time.Millisecond):
		}
	}
}

// stop terminates every daemon (SIGTERM, then kill after a grace
// period) and closes the log files.
func (pc *procCluster) stop() {
	for _, cmd := range pc.procs {
		if cmd.Process != nil {
			cmd.Process.Signal(syscall.SIGTERM) //nolint:errcheck // best-effort
		}
	}
	grace := time.AfterFunc(5*time.Second, func() {
		for _, cmd := range pc.procs {
			if cmd.Process != nil {
				cmd.Process.Kill() //nolint:errcheck // last resort
			}
		}
	})
	for _, cmd := range pc.procs {
		cmd.Wait() //nolint:errcheck // exit status is expected to be the signal
	}
	grace.Stop()
	for _, f := range pc.logs {
		f.Close()
	}
}
