// Command perfbench is the repository's benchmark: one command that
// runs a named workload against the platform from outside, through its
// public entry points, checks the answers, and prints every metric by
// name with its unit.
//
// Usage (from the repository root, through the launcher that builds it):
//
//	bash perfbench/run.sh --workload sessionize-sm --seed 1 --seconds 20 --trace 0
//
// Workloads: sessionize-sm and sessionize-inc (onepass.RunReal over a
// pre-materialized click log), ingest-http (a child onepassd over
// loopback HTTP) and jobs-http (the onepassd job scheduler over
// loopback HTTP). With --trace 0 the run measures the end-to-end
// metrics; with --trace 1 it runs the service layers in-process,
// records spans around its calls into each layer, takes a CPU profile
// attributed to the repository's packages, and reports the per-layer
// metrics. The last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// A full record of the run (host facts, sample counts, notes) is
// written under the run directory; -compare OLD,NEW prints two such
// records side by side and refuses when their host facts differ.
// See README.md for the workloads, metrics and sizing notes.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"
)

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// endToEnd and perLayer are the metric names BENCHMARK.json declares,
// with their units; every run reports exactly one of the two sets.
var endToEnd = []struct{ name, unit string }{
	{"latency_p50_ms", "ms"},
	{"throughput_per_s", "1/s"},
	{"side_p50_ms", "ms"},
	{"peak_rss_mb", "MB"},
	{"setup_s", "s"},
}

// options are the parsed command-line settings.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	onepassd string
	runDir   string
	workers  int
}

// run accumulates one workload run's metrics and answer checks.
type run struct {
	opts      options
	host      hostFacts
	metrics   map[string]metric // the reported set (end-to-end or per-layer)
	detail    map[string]metric // workload-specific names, for the record only
	attempted int64
	failed    int64
	problems  []string
	notes     []string
	tr        *tracer // nil unless --trace 1
	dir       string  // scratch directory of this run
}

func (r *run) set(name string, v float64, unit string) { r.metrics[name] = metric{v, unit} }

// note records a workload-specific figure (printed and saved, not part
// of the one-line summary).
func (r *run) note(name string, v float64, unit string) { r.detail[name] = metric{v, unit} }

// mismatch records a failed answer check: it fails the run and counts
// as one failed operation.
func (r *run) mismatch(format string, args ...any) {
	r.failed++
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

type workload struct {
	name string
	run  func(ctx context.Context, r *run) error
}

var workloads = []workload{
	{"sessionize-sm", func(ctx context.Context, r *run) error { return runBatch(ctx, r, smPlatform) }},
	{"sessionize-inc", func(ctx context.Context, r *run) error { return runBatch(ctx, r, incPlatform) }},
	{"ingest-http", runIngest},
	{"jobs-http", runJobs},
}

func main() {
	var o options
	var trace int
	var compare, record string
	flag.StringVar(&o.workload, "workload", "", "workload: sessionize-sm|sessionize-inc|ingest-http|jobs-http")
	flag.Int64Var(&o.seed, "seed", 1, "workload seed: the same seed generates the same inputs")
	flag.Float64Var(&o.seconds, "seconds", 10, "measured seconds per run")
	flag.IntVar(&trace, "trace", 0, "0 = end-to-end metrics; 1 = traced run with per-layer metrics")
	flag.StringVar(&o.onepassd, "onepassd", "", "path of the onepassd binary built from this tree")
	flag.StringVar(&o.runDir, "rundir", ".bench_run", "directory for WALs, job stores, traces and result records")
	flag.StringVar(&compare, "compare", "", "OLD,NEW: compare two saved result records (refuses on differing host facts)")
	flag.StringVar(&record, "record-answers", "", "FIRST-LAST: print the batch answer table for a seed range (see answers.json)")
	flag.Parse()

	if compare != "" {
		oldPath, newPath, ok := strings.Cut(compare, ",")
		if !ok {
			fatal(errors.New("-compare wants OLD,NEW"))
		}
		if err := compareResults(oldPath, newPath); err != nil {
			fatal(err)
		}
		return
	}

	// Load stays within the host's cores: one generator process,
	// GOMAXPROCS and the worker pool pinned to nproc.
	o.workers = runtime.NumCPU()
	runtime.GOMAXPROCS(o.workers)
	o.trace = trace == 1

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()

	if record != "" {
		if err := recordAnswers(ctx, record, o.workers); err != nil {
			fatal(err)
		}
		return
	}
	if err := execute(ctx, o, trace); err != nil {
		stop()
		fatal(err)
	}
}

func execute(ctx context.Context, o options, trace int) error {
	if trace != 0 && trace != 1 {
		return fmt.Errorf("bad --trace %d (want 0 or 1)", trace)
	}
	if o.seconds <= 0 {
		return fmt.Errorf("bad --seconds %v (want > 0)", o.seconds)
	}
	var w *workload
	for i := range workloads {
		if workloads[i].name == o.workload {
			w = &workloads[i]
		}
	}
	if w == nil {
		return fmt.Errorf("unknown --workload %q (want sessionize-sm|sessionize-inc|ingest-http|jobs-http)", o.workload)
	}
	if _, err := os.Stat(o.onepassd); err != nil {
		return fmt.Errorf("onepassd binary: %w (run through perfbench/run.sh)", err)
	}
	runDir, err := filepath.Abs(o.runDir)
	if err != nil {
		return err
	}
	o.runDir = runDir
	dir := filepath.Join(runDir, fmt.Sprintf("%s-seed%d-trace%d-%d", o.workload, o.seed, trace, os.Getpid()))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	// A run writes hundreds of MB of WAL. Settle the disk before
	// measuring, and delete and settle again before exiting, so one
	// run's writeback (and TRIMs, where the filesystem is mounted with
	// discard) does not land in the next run's measurement.
	syscall.Sync()
	defer func() {
		os.RemoveAll(dir)
		syscall.Sync()
	}()

	r := &run{
		opts:    o,
		host:    collectHost(o.workers, dir, o.seed),
		metrics: map[string]metric{},
		detail:  map[string]metric{},
		dir:     dir,
	}
	if o.trace {
		r.tr = newTracer()
	}
	if err := w.run(ctx, r); err != nil {
		return fmt.Errorf("%s: %w", o.workload, err)
	}
	if err := r.finish(trace); err != nil {
		return err
	}
	if len(r.problems) > 0 {
		return errAnswers
	}
	return nil
}

// errAnswers fails the command after the result line was printed: an
// answer check did not hold.
var errAnswers = errors.New("answer check failed")

// finish completes the reported metric set, prints the readable table
// and the one-line summary, and saves the full record.
func (r *run) finish(trace int) error {
	want := endToEnd
	if r.opts.trace {
		want = perLayer
	}
	out := make(map[string]metric, len(want))
	for _, m := range want {
		v, ok := r.metrics[m.name]
		switch {
		case !ok && !r.opts.trace:
			return fmt.Errorf("internal: end-to-end metric %s was not measured", m.name)
		case !ok:
			v = metric{0, m.unit} // layer idle on this workload
		case v.Unit != m.unit:
			return fmt.Errorf("internal: metric %s measured in %s, declared in %s", m.name, v.Unit, m.unit)
		}
		out[m.name] = v
	}

	frac := 0.0
	if r.attempted > 0 {
		frac = float64(r.failed) / float64(r.attempted)
	}
	r.note("failed_frac", frac, "frac")

	fmt.Printf("perfbench %s seed=%d trace=%d seconds=%g\n", r.opts.workload, r.opts.seed, trace, r.opts.seconds)
	h := r.host
	fmt.Printf("host: nproc=%d gomaxprocs=%d workers=%d go=%s wal_fs=%s cpu=%q\n",
		h.NProc, h.GOMAXPROCS, h.Workers, h.GoVersion, h.WALFS, h.CPU)
	printTable("metrics", out)
	printTable("workload detail", r.detail)
	for _, n := range r.notes {
		fmt.Println("note:", n)
	}
	for _, p := range r.problems {
		fmt.Println("ANSWER CHECK FAILED:", p)
	}
	if r.tr != nil {
		path := filepath.Join(r.opts.runDir, fmt.Sprintf("trace-%s-seed%d.json", r.opts.workload, r.opts.seed))
		if err := r.tr.write(path); err != nil {
			return err
		}
		fmt.Println("spans written to", path)
		r.tr.printSelfTimes()
	}

	rec := result{
		Workload: r.opts.workload, Trace: r.opts.trace, Host: r.host,
		Correct: len(r.problems) == 0, Attempted: r.attempted, Failed: r.failed,
		Metrics: mergeMetrics(out, r.detail), Notes: append(r.notes, r.problems...),
	}
	data, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		return err
	}
	resDir := filepath.Join(r.opts.runDir, "results")
	if err := os.MkdirAll(resDir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(resDir, fmt.Sprintf("%s-seed%d-trace%d.json", r.opts.workload, r.opts.seed, trace))
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Println("result record written to", path)

	attempted := r.attempted
	if attempted < 1 {
		attempted = 1
	}
	line, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int64             `json:"attempted"`
		Failed    int64             `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{len(r.problems) == 0, attempted, r.failed, out})
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

func mergeMetrics(a, b map[string]metric) map[string]metric {
	m := make(map[string]metric, len(a)+len(b))
	for k, v := range a {
		m[k] = v
	}
	for k, v := range b {
		m["detail."+k] = v
	}
	return m
}

func printTable(title string, m map[string]metric) {
	if len(m) == 0 {
		return
	}
	names := make([]string, 0, len(m))
	for k := range m {
		names = append(names, k)
	}
	sort.Strings(names)
	fmt.Printf("%s:\n", title)
	for _, k := range names {
		fmt.Printf("  %-30s %16.6f %s\n", k, m[k].Value, m[k].Unit)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(1)
}

// loopUntil runs op back to back until the deadline has passed and op
// has run at least min times, or ctx ends.
func loopUntil(ctx context.Context, d time.Duration, min int, op func() error) error {
	deadline := time.Now().Add(d)
	for i := 0; i < min || time.Now().Before(deadline); i++ {
		if err := ctx.Err(); err != nil {
			return err
		}
		if err := op(); err != nil {
			return err
		}
	}
	return nil
}
