package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"
)

// TestMain lets the test binary stand in for the daemon: started with
// ADVISORD_TEST_MAIN=1 in its environment, it runs main on its arguments.
func TestMain(m *testing.M) {
	if os.Getenv("ADVISORD_TEST_MAIN") == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// smokeProblem is a two-object problem on calibrated disk15k targets.
const smokeProblem = `{
  "objects": [
    {"name": "ORDERS", "size_mb": 64, "kind": "table"},
    {"name": "ORDERS_PK", "size_mb": 16, "kind": "index"}
  ],
  "targets": [
    {"name": "disk0", "capacity_mb": 256, "model": "disk15k"},
    {"name": "disk1", "capacity_mb": 256, "model": "disk15k"}
  ],
  "workloads": {"workloads": [
    {"name": "ORDERS", "read_size": 131072, "read_rate": 100, "run_count": 64},
    {"name": "ORDERS_PK", "read_size": 8192, "read_rate": 150, "run_count": 1}
  ]},
  "current": [[1, 0], [1, 0]]
}`

// daemon is one advisord process run from the test binary.
type daemon struct {
	cmd    *exec.Cmd
	addr   string
	stderr bytes.Buffer // read only once done has delivered
	done   chan error
	exited bool
}

// command builds the re-executed test binary with the daemon's flags.
func command(t *testing.T, args ...string) *exec.Cmd {
	t.Helper()
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	cmd := exec.Command(exe, args...)
	cmd.Env = append(os.Environ(), "ADVISORD_TEST_MAIN=1")
	return cmd
}

// startDaemon starts advisord and waits for its "listening on" line.
func startDaemon(t *testing.T, args ...string) *daemon {
	t.Helper()
	d := &daemon{cmd: command(t, args...), done: make(chan error, 1)}
	d.cmd.Stderr = &d.stderr
	stdout, err := d.cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := d.cmd.Start(); err != nil {
		t.Fatal(err)
	}
	addrc := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(stdout)
		for sc.Scan() {
			if a, ok := strings.CutPrefix(sc.Text(), "advisord listening on "); ok {
				addrc <- a
				break
			}
		}
		_, _ = io.Copy(io.Discard, stdout)
		d.done <- d.cmd.Wait()
	}()
	select {
	case d.addr = <-addrc:
	case err := <-d.done:
		t.Fatalf("advisord exited before listening: %v\n%s", err, d.stderr.String())
	case <-time.After(30 * time.Second):
		_ = d.cmd.Process.Kill()
		t.Fatal("advisord never reported its address")
	}
	t.Cleanup(func() {
		if !d.exited {
			_ = d.cmd.Process.Kill()
			<-d.done
		}
	})
	return d
}

// stop sends SIGTERM and returns the daemon's exit status.
func (d *daemon) stop(t *testing.T) error {
	t.Helper()
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-d.done:
		d.exited = true
		return err
	case <-time.After(30 * time.Second):
		_ = d.cmd.Process.Kill()
		t.Fatal("advisord did not exit within 30s of SIGTERM")
		return nil
	}
}

// tenantVersion sends one request and returns the tenant version it reports.
func tenantVersion(t *testing.T, method, url, body string) int {
	t.Helper()
	req, err := http.NewRequest(method, url, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	client := &http.Client{Timeout: 60 * time.Second}
	resp, err := client.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("%s %s: %s: %s", method, url, resp.Status, raw)
	}
	var got struct {
		Version int `json:"version"`
	}
	if err := json.Unmarshal(raw, &got); err != nil {
		t.Fatalf("%s %s: %v: %s", method, url, err, raw)
	}
	return got.Version
}

// stopClean sends SIGTERM and requires the documented graceful exit: status
// 0, the shutdown notice, and a non-empty metrics file.
func (d *daemon) stopClean(t *testing.T, prom string) {
	t.Helper()
	if err := d.stop(t); err != nil {
		t.Fatalf("advisord exit after SIGTERM: %v, want status 0\n%s", err, d.stderr.String())
	}
	if !strings.Contains(d.stderr.String(), "shutting down") {
		t.Errorf("stderr lacks the shutdown notice:\n%s", d.stderr.String())
	}
	if st, err := os.Stat(prom); err != nil || st.Size() == 0 {
		t.Errorf("metrics file not written on shutdown: %v", err)
	}
}

// TestSignalShutdownAndRestart drives the daemon's documented lifecycle: a
// SIGTERM drains and exits 0 with the metrics file written, and a restart
// on the same -data restores the tenant. The shutdown must be clean on
// every run, not on most, so the restart cycle repeats.
func TestSignalShutdownAndRestart(t *testing.T) {
	if testing.Short() {
		t.Skip("starts and stops the daemon 31 times")
	}
	dir := t.TempDir()
	data := filepath.Join(dir, "data")
	prom := filepath.Join(dir, "m.prom")
	args := []string{"-addr", "127.0.0.1:0", "-data", data, "-metrics-out", prom}

	d := startDaemon(t, args...)
	if v := tenantVersion(t, http.MethodPut, "http://"+d.addr+"/v1/tenants/smoke", smokeProblem); v != 1 {
		t.Fatalf("PUT returned version %d, want 1", v)
	}
	d.stopClean(t, prom)

	for run := 0; run < 30; run++ {
		if err := os.Remove(prom); err != nil {
			t.Fatal(err)
		}
		d = startDaemon(t, args...)
		if v := tenantVersion(t, http.MethodGet, "http://"+d.addr+"/v1/tenants/smoke", ""); v != 1 {
			t.Fatalf("restart %d: restored tenant has version %d, want 1", run, v)
		}
		d.stopClean(t, prom)
	}
}

// TestUnusableAddrExits1 checks that a listen failure is reported with exit
// status 1.
func TestUnusableAddrExits1(t *testing.T) {
	cmd := command(t, "-addr", "127.0.0.1:99999")
	out, err := cmd.CombinedOutput()
	var exit *exec.ExitError
	if !errors.As(err, &exit) || exit.ExitCode() != 1 {
		t.Fatalf("exit %v, want status 1\n%s", err, out)
	}
}
