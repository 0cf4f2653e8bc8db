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
	"sync"
	"syscall"
	"time"

	"repro/internal/ingest"
	"repro/internal/sched"
	"repro/internal/serve"
)

// service is the system under test for the HTTP workloads: a child
// onepassd process (untraced runs) or the same handler stack served
// in-process on a loopback listener (traced runs, so the layers can be
// profiled and called directly).
type service struct {
	base string // http://host:port

	cmd *exec.Cmd // child daemon

	ing  *ingest.Ingester // in-process only
	jobs *sched.Scheduler
	srv  *http.Server
	done chan error

	stopOnce sync.Once
	stopErr  error
}

// The daemon's own defaults, as cmd/onepassd sets them.
const (
	daemonSealBytes   = 64 << 20
	daemonCkptEvery   = 256
	daemonMaxInflight = 64 << 20
)

// setUpService starts the service serviceSetups times, each on a fresh
// directory after prepare (input generation), stopping all but the last,
// and records the median time from prepare to healthy as setup_s.
func setUpService(ctx context.Context, r *run, withJobs bool, prepare func()) (*service, error) {
	var svc *service
	var setups []float64
	for i := 0; i < serviceSetups; i++ {
		if svc != nil {
			if err := svc.stop(); err != nil {
				return nil, err
			}
		}
		dir := filepath.Join(r.dir, fmt.Sprintf("svc%d", i))
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, err
		}
		t0 := time.Now()
		prepare()
		var err error
		if r.tr == nil {
			svc, err = startDaemon(ctx, r.opts.onepassd, dir, r.opts.workers, withJobs)
		} else {
			svc, err = startInProcess(dir, withJobs)
		}
		if err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	r.set("setup_s", median(setups), "s")
	return svc, nil
}

// startDaemon execs onepassd on dir and waits until /healthz answers.
func startDaemon(ctx context.Context, bin, dir string, workers int, withJobs bool) (*service, error) {
	addrFile := filepath.Join(dir, "addr")
	args := []string{"-wal-dir", filepath.Join(dir, "wal"), "-query", "clickcount", "-addr", "127.0.0.1:0", "-addr-file", addrFile}
	if withJobs {
		args = append(args, "-jobs-dir", filepath.Join(dir, "jobs"))
	}
	cmd := exec.Command(bin, args...)
	cmd.Env = append(os.Environ(), "GOMAXPROCS="+strconv.Itoa(workers))
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start onepassd: %w", err)
	}
	s := &service{cmd: cmd, done: make(chan error, 1)}
	go func() { s.done <- cmd.Wait() }()
	deadline := time.Now().Add(30 * time.Second)
	for {
		if addr, err := os.ReadFile(addrFile); err == nil && len(addr) > 0 {
			s.base = "http://" + string(addr)
			if healthy(s.base) {
				return s, nil
			}
		}
		select {
		case err := <-s.done:
			s.done <- err
			return nil, fmt.Errorf("onepassd exited before becoming healthy: %v", err)
		case <-ctx.Done():
			s.stop()
			return nil, ctx.Err()
		case <-time.After(500 * time.Microsecond):
		}
		if time.Now().After(deadline) {
			s.stop()
			return nil, errors.New("onepassd did not become healthy within 30s")
		}
	}
}

var healthClient = &http.Client{Timeout: time.Second}

func healthy(base string) bool {
	resp, err := healthClient.Get(base + "/healthz")
	if err != nil {
		return false
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	return resp.StatusCode == http.StatusOK
}

// startInProcess opens the ingester (and, withJobs, the scheduler) on
// dir with the daemon's defaults and serves them on a loopback port.
func startInProcess(dir string, withJobs bool) (*service, error) {
	ing, err := openIngester(filepath.Join(dir, "wal"))
	if err != nil {
		return nil, err
	}
	s := &service{ing: ing, done: make(chan error, 1)}
	if withJobs {
		if s.jobs, err = sched.Open(sched.Config{Dir: filepath.Join(dir, "jobs")}); err != nil {
			ing.Abort()
			return nil, err
		}
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		s.stop()
		return nil, err
	}
	s.base = "http://" + ln.Addr().String()
	s.srv = &http.Server{Handler: serve.NewHandler(ing, s.jobs)}
	go func() { s.done <- s.srv.Serve(ln) }()
	return s, nil
}

// openIngester opens a clickcount ingester on walDir with the daemon's
// default flags.
func openIngester(walDir string) (*ingest.Ingester, error) {
	factory, validate, err := ingest.StandardQuery("clickcount")
	if err != nil {
		return nil, err
	}
	return ingest.Open(ingest.Config{
		Dir: walDir, QueryName: "clickcount", NewQuery: factory, Validate: validate,
		SealBytes: daemonSealBytes, CheckpointEvery: daemonCkptEvery, MaxInflightBytes: daemonMaxInflight,
	})
}

// peakRSSMB is the serving process's peak resident set.
func (s *service) peakRSSMB() float64 {
	if s.cmd != nil {
		return peakRSSMB(strconv.Itoa(s.cmd.Process.Pid))
	}
	return selfPeakRSSMB()
}

// stop shuts the service down gracefully and waits for it: SIGTERM and
// a bounded wait for the child (then SIGKILL), or a drain in-process.
// Later calls return the first call's result.
func (s *service) stop() error {
	s.stopOnce.Do(func() { s.stopErr = s.shutdown() })
	return s.stopErr
}

func (s *service) shutdown() error {
	if s.cmd != nil {
		s.cmd.Process.Signal(syscall.SIGTERM)
		select {
		case err := <-s.done:
			if err != nil {
				return fmt.Errorf("onepassd exit: %w", err)
			}
			return nil
		case <-time.After(60 * time.Second):
			s.cmd.Process.Kill()
			<-s.done
			return errors.New("onepassd did not drain within 60s; killed")
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	var errs []error
	if s.srv != nil {
		errs = append(errs, s.srv.Shutdown(ctx))
		<-s.done
	}
	if s.jobs != nil {
		errs = append(errs, s.jobs.Drain(ctx), s.jobs.Close())
	}
	if s.ing != nil {
		errs = append(errs, s.ing.Drain(ctx))
	}
	return errors.Join(errs...)
}

// newClient is an HTTP client holding at most conns connections to the
// service: the load never uses more connections than the host has cores.
func newClient(conns int) *http.Client {
	return &http.Client{
		Timeout: 30 * time.Second,
		Transport: &http.Transport{
			MaxConnsPerHost:     conns,
			MaxIdleConnsPerHost: conns,
			DisableCompression:  true,
		},
	}
}

// do sends one request and reads the whole response.
func do(c *http.Client, method, url, ctype string, body []byte) (int, []byte, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		return 0, nil, err
	}
	if ctype != "" {
		req.Header.Set("Content-Type", ctype)
	}
	resp, err := c.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	return resp.StatusCode, data, err
}
