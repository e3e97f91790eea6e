package main

import (
	"bytes"
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
	"syscall"
	"time"
)

// server is one running relmaxd process.
type server struct {
	cmd  *exec.Cmd
	base string
	done chan struct{}
	err  error // exit status, valid once done is closed
	log  *os.File
}

// datasetInfo is one dataset of relmaxd's /healthz.
type datasetInfo struct {
	N     int    `json:"n"`
	M     int    `json:"m"`
	Epoch uint64 `json:"epoch"`
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

// startServer launches relmaxd for in's workload with GOMAXPROCS=procs and returns once
// /healthz lists its dataset, with the time that took. dir holds the
// process log and, for durable workloads, the data directory.
func startServer(bin string, in *inputs, procs int, dir string) (*server, time.Duration, error) {
	w := in.w
	port, err := freePort()
	if err != nil {
		return nil, 0, err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, 0, err
	}
	args := []string{"-addr", "127.0.0.1:" + strconv.Itoa(port), "-dataset", w.dataset,
		"-scale", strconv.FormatFloat(w.scale, 'g', -1, 64)}
	if w.durable {
		args = append(args, "-data-dir", filepath.Join(dir, "data"))
	}
	if in.cache > 0 {
		args = append(args, "-cache", strconv.Itoa(in.cache))
	}
	logf, err := os.Create(filepath.Join(dir, "relmaxd.log"))
	if err != nil {
		return nil, 0, err
	}
	cmd := exec.Command(bin, args...)
	cmd.Env = append(os.Environ(), "GOMAXPROCS="+strconv.Itoa(procs))
	cmd.Stdout, cmd.Stderr = logf, logf
	// relmaxd must not outlive a benchmark that is killed mid-run.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	s := &server{cmd: cmd, base: fmt.Sprintf("http://127.0.0.1:%d", port), done: make(chan struct{}), log: logf}
	start := time.Now()
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, 0, fmt.Errorf("start relmaxd: %w", err)
	}
	go func() {
		s.err = cmd.Wait()
		close(s.done)
	}()
	client := &http.Client{Timeout: time.Second}
	for {
		select {
		case <-s.done:
			logf.Close()
			return nil, 0, fmt.Errorf("relmaxd exited before serving (%v); log in %s", s.err, logf.Name())
		default:
		}
		if _, ok, _ := s.health(client, w.dataset); ok {
			return s, time.Since(start), nil
		}
		if time.Since(start) > 60*time.Second {
			s.stop()
			return nil, 0, errors.New("relmaxd not ready after 60s")
		}
		time.Sleep(100 * time.Microsecond)
	}
}

// health returns the dataset's /healthz entry and whether it is listed.
func (s *server) health(client *http.Client, dataset string) (datasetInfo, bool, error) {
	resp, err := client.Get(s.base + "/healthz")
	if err != nil {
		return datasetInfo{}, false, err
	}
	defer resp.Body.Close()
	var h struct {
		Datasets map[string]datasetInfo `json:"datasets"`
	}
	if resp.StatusCode != http.StatusOK {
		return datasetInfo{}, false, fmt.Errorf("healthz: %s", resp.Status)
	}
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		return datasetInfo{}, false, fmt.Errorf("healthz: %w", err)
	}
	d, ok := h.Datasets[dataset]
	return d, ok, nil
}

func (s *server) pid() int { return s.cmd.Process.Pid }

// stop sends SIGTERM, waits for relmaxd's graceful shutdown and kills it
// after ten seconds. It returns once the process has exited.
func (s *server) stop() {
	_ = s.cmd.Process.Signal(syscall.SIGTERM) // fails only if it already exited
	select {
	case <-s.done:
	case <-time.After(10 * time.Second):
		_ = s.cmd.Process.Kill()
		<-s.done
	}
	s.log.Close()
}

// post sends one pre-encoded request and returns the status and body.
func post(client *http.Client, url string, body []byte) (int, []byte, error) {
	resp, err := client.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return resp.StatusCode, b, err
}

// newClient returns an HTTP client keeping one idle connection per caller.
func newClient(conns int) *http.Client {
	return &http.Client{
		Timeout: 60 * time.Second,
		Transport: &http.Transport{
			MaxIdleConns:        conns,
			MaxIdleConnsPerHost: conns,
			DisableCompression:  true,
		},
	}
}
