package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"repro"
	"repro/internal/sched"
)

// The jobs-http workload: one closed-loop client per core submits a job
// at the scheduler's default spec (1 GB logical at 1/4096, 400 users,
// backend sim) and polls until the job reaches a terminal state. Specs
// rotate over the five platforms running sessionization, plus
// clickcount with node_combine on.
const (
	jobsOrg         = "bench"
	jobSeedVariants = 4 // input seeds per spec, derived from --seed
	pollInterval    = 500 * time.Microsecond
	jobTimeout      = time.Minute
	directSubmits   = 50  // direct Scheduler.Submit calls in the traced run
	storeCommits    = 300 // job-store commits (Scheduler.SetLimits) in the traced run
	// rssJobs is when peak_rss_mb is read: after this many jobs. The job
	// store keeps every run record in memory, so the peak at the end of
	// the run would scale with throughput.
	rssJobs = 1000
)

func jobSpecs(seed int64) []sched.JobSpec {
	var specs []sched.JobSpec
	for v := int64(0); v < jobSeedVariants; v++ {
		s := seed*jobSeedVariants + v + 1
		for _, pl := range sched.Platforms {
			specs = append(specs, sched.JobSpec{Org: jobsOrg, Query: "sessionization", Platform: pl, Seed: s})
		}
		specs = append(specs, sched.JobSpec{Org: jobsOrg, Query: "clickcount", Platform: "inc-hash", NodeCombine: "on", Seed: s})
	}
	return specs
}

// jobDone is one job the client saw complete.
type jobDone struct {
	id     string
	spec   int
	turnMS float64
}

type jobLoad struct {
	submit, turn dist
	pollGap      []float64 // per job: turnaround / status reads, the effective poll period
	done         []jobDone
	attempted    int64
	failed       int64
	elapsed      time.Duration
	rssMB        float64 // serving process's peak RSS when rssJobs jobs had completed
}

// closedJobs runs conns clients that submit, poll to a terminal state
// and submit again, for d. A refused submit, an error or a job that
// does not end done counts as a failed operation missing every limit.
func closedJobs(ctx context.Context, svc *service, c *http.Client, specs []sched.JobSpec, conns int, d time.Duration, tr *tracer) *jobLoad {
	base := svc.base
	bodies := make([][]byte, len(specs))
	for i, s := range specs {
		bodies[i], _ = json.Marshal(s) // plain struct: cannot fail
	}
	start := time.Now()
	deadline := start.Add(d)
	var next, completed atomic.Int64
	var rssMB float64 // written once, by the client completing job rssJobs
	parts := make([]*jobLoad, conns)
	var wg sync.WaitGroup
	for w := range parts {
		parts[w] = &jobLoad{}
		wg.Add(1)
		go func(l *jobLoad) {
			defer wg.Done()
			for ctx.Err() == nil && time.Now().Before(deadline) {
				k := int(next.Add(1)-1) % len(specs)
				l.attempted++
				id, turn, polls, ok := runOneJob(ctx, c, base, bodies[k], l, tr)
				if !ok {
					l.failed++
					l.submit.fail()
					l.turn.fail()
					continue
				}
				if completed.Add(1) == rssJobs {
					rssMB = svc.peakRSSMB()
				}
				l.turn.add(turn)
				l.pollGap = append(l.pollGap, turn/float64(max(polls, 1)))
				l.done = append(l.done, jobDone{id: id, spec: k, turnMS: turn})
			}
		}(parts[w])
	}
	wg.Wait()
	total := &jobLoad{rssMB: rssMB}
	for _, p := range parts {
		total.merge(p)
	}
	total.elapsed = time.Since(start)
	return total
}

func (l *jobLoad) merge(o *jobLoad) {
	l.submit.ms = append(l.submit.ms, o.submit.ms...)
	l.turn.ms = append(l.turn.ms, o.turn.ms...)
	l.done = append(l.done, o.done...)
	l.pollGap = append(l.pollGap, o.pollGap...)
	l.attempted += o.attempted
	l.failed += o.failed
	l.elapsed += o.elapsed
}

// runOneJob submits one job and polls it to a terminal state. It
// returns the job id, the turnaround in ms and the number of status
// reads; the submit latency goes into l.submit.
func runOneJob(ctx context.Context, c *http.Client, base string, body []byte, l *jobLoad, tr *tracer) (string, float64, int, bool) {
	t0 := time.Now()
	root := tr.start("serve", "job", 0, t0.UnixNano())
	defer tr.end(root)
	id := tr.start("serve", "POST /v1/jobs", root, t0.UnixNano())
	code, data, err := do(c, http.MethodPost, base+"/v1/jobs", "application/json", body)
	tr.end(id)
	if err != nil || code != http.StatusCreated {
		return "", 0, 0, false
	}
	l.submit.add(msSince(t0))
	var job struct {
		ID    string `json:"id"`
		State string `json:"state"`
	}
	if json.Unmarshal(data, &job) != nil {
		return "", 0, 0, false
	}
	polls := 0
	for ; !terminalState(job.State); polls++ {
		if ctx.Err() != nil || time.Since(t0) > jobTimeout {
			return "", 0, polls, false
		}
		sleepPrecise(pollInterval)
		id := tr.start("serve", "GET /v1/jobs/{id}", root, t0.UnixNano())
		code, data, err := do(c, http.MethodGet, base+"/v1/jobs/"+job.ID, "", nil)
		tr.end(id)
		if err != nil || code != http.StatusOK || json.Unmarshal(data, &job) != nil {
			return "", 0, polls, false
		}
	}
	return job.ID, msSince(t0), polls, job.State == sched.StateDone
}

func terminalState(s string) bool {
	return s == sched.StateDone || s == sched.StateFailed || s == sched.StateCanceled
}

func runJobs(ctx context.Context, r *run) error {
	conns := r.opts.workers
	svc, err := setUpService(ctx, r, true, func() {})
	if err != nil {
		return err
	}
	defer svc.stop()

	specs := jobSpecs(r.opts.seed)
	c := newClient(conns)
	measure := time.Duration(r.opts.seconds * float64(time.Second))
	var load *jobLoad
	if r.tr == nil {
		load = closedJobs(ctx, svc, c, specs, conns, measure, nil)
	} else if load, err = tracedJobs(ctx, r, svc, c, specs, measure); err != nil {
		return err
	}
	r.attempted += load.attempted
	r.failed += load.failed
	turn, sub := load.turn.summary(), load.submit.summary()
	r.set("latency_p50_ms", turn.P50, "ms")
	r.set("throughput_per_s", float64(len(load.done))/load.elapsed.Seconds(), "1/s")
	r.set("side_p50_ms", sub.P50, "ms")
	r.note("turnaround_p50_ms", turn.P50, "ms")
	r.note(fmt.Sprintf("turnaround_p%g_ms", turn.TailPct), turn.Tail, "ms")
	r.note("turnaround_samples", float64(turn.N), "count")
	r.note("jobs_per_s", float64(len(load.done))/load.elapsed.Seconds(), "1/s")
	r.note("submit_p50_ms", sub.P50, "ms")
	r.note("poll_interval_ms", float64(pollInterval)/1e6, "ms")
	r.note("poll_period_ms", median(load.pollGap), "ms")
	rss := load.rssMB
	if rss == 0 { // fewer than rssJobs jobs completed
		rss = svc.peakRSSMB()
		r.notes = append(r.notes, fmt.Sprintf("only %d jobs completed: peak_rss_mb is the whole run's", len(load.done)))
	}
	r.set("peak_rss_mb", rss, "MB")

	if err := checkJobAnswers(r, c, svc.base, specs, load); err != nil {
		return err
	}
	return svc.stop()
}

// tracedJobs runs the closed loop in two halves, untraced and then
// traced with the profiler on, and reads the scheduler and job store
// counters in-process around the traced half.
func tracedJobs(ctx context.Context, r *run, svc *service, c *http.Client, specs []sched.JobSpec, d time.Duration) (*jobLoad, error) {
	a := closedJobs(ctx, svc, c, specs, r.opts.workers, d/2, nil)
	prof, err := startProfile()
	if err != nil {
		return nil, err
	}
	before := svc.jobs.Metrics().Store
	b := closedJobs(ctx, svc, c, specs, r.opts.workers, d/2, r.tr)
	after := svc.jobs.Metrics().Store
	if err := prof.finish(r, len(b.done)); err != nil {
		return nil, err
	}
	n := int64(max(len(b.done), 1))
	r.set("jobstore.syncs_per_job", ratio(after.LogSyncs-before.LogSyncs, n), "ratio")
	r.set("jobstore.bytes_per_job", ratio(after.LogAppendedBytes-before.LogAppendedBytes, n), "B")
	r.set("jobstore.snapshots", float64(after.Snapshots-before.Snapshots), "count")
	r.set("trace.overhead_frac", b.turn.summary().P50/a.turn.summary().P50-1, "frac")
	if err := schedProbes(ctx, r, svc, specs); err != nil {
		return nil, err
	}
	// The ingest layer's direct probes run here too, so its per-layer
	// metrics are measured on a workload BENCHMARK.json keeps.
	if _, err := ingestProbes(r, genIngestLoad(r.opts.seed)); err != nil {
		return nil, err
	}
	a.merge(b)
	return a, nil
}

// checkJobAnswers compares every completed run's answer with an
// in-process onepass.Run of the same spec: output records and virtual
// running time must be equal.
func checkJobAnswers(r *run, c *http.Client, base string, specs []sched.JobSpec, load *jobLoad) error {
	type ref struct{ records, virtual int64 }
	refs := make([]ref, len(specs))
	var direct []float64
	for i, s := range specs {
		s.Normalize()
		job, newQuery, err := sched.BuildJob(s)
		if err != nil {
			return err
		}
		job.Query = newQuery()
		id := r.tr.start("engine", "Run", 0, int64(i))
		t0 := time.Now()
		rep, err := onepass.Run(job)
		direct = append(direct, msSince(t0))
		r.tr.end(id)
		if err != nil {
			return fmt.Errorf("reference run of spec %d: %w", i, err)
		}
		refs[i] = ref{rep.OutputRecords, int64(rep.RunningTime)}
	}
	r.set("engine.direct_job_ms", median(direct), "ms")

	var wall, overhead, recordBytes []float64
	for _, d := range load.done {
		code, data, err := do(c, http.MethodGet, base+"/v1/jobs/"+d.id+"/runs", "", nil)
		if err != nil || code != http.StatusOK {
			return fmt.Errorf("runs of job %s: %d %v", d.id, code, err)
		}
		var runs []struct {
			State  string `json:"state"`
			Report *struct {
				OutputRecords int64
				RunningTime   int64
				WallTime      int64
			} `json:"report"`
		}
		if err := json.Unmarshal(data, &runs); err != nil {
			return err
		}
		if len(runs) != 1 || runs[0].Report == nil {
			r.mismatch("job %s has %d runs, want one with a report", d.id, len(runs))
			continue
		}
		recordBytes = append(recordBytes, float64(len(data)))
		rep, want := runs[0].Report, refs[d.spec]
		if rep.OutputRecords != want.records || rep.RunningTime != want.virtual {
			r.mismatch("job %s (spec %d): %d records in %v virtual, reference %d in %v",
				d.id, d.spec, rep.OutputRecords, time.Duration(rep.RunningTime), want.records, time.Duration(want.virtual))
		}
		wall = append(wall, float64(rep.WallTime)/1e6)
		overhead = append(overhead, d.turnMS-float64(rep.WallTime)/1e6)
	}
	r.set("engine.job_ms", median(wall), "ms")
	r.set("sched.overhead_ms", median(overhead), "ms")
	r.note("engine_job_ms", median(wall), "ms")
	r.note("sched_overhead_ms", median(overhead), "ms")
	r.note("run_record_bytes", median(recordBytes), "B")
	r.notes = append(r.notes, fmt.Sprintf("answers checked: %d completed jobs against in-process runs of %d specs", len(load.done), len(specs)))
	return nil
}

// schedProbes calls the live scheduler directly: Submit's durable ack,
// and one-row job-store commits.
func schedProbes(ctx context.Context, r *run, svc *service, specs []sched.JobSpec) error {
	var sub dist
	for i := 0; i < directSubmits; i++ {
		id := r.tr.start("sched", "Submit", 0, int64(i))
		t0 := time.Now()
		job, err := svc.jobs.Submit(specs[i%len(specs)])
		sub.add(msSince(t0))
		r.tr.end(id)
		if err != nil {
			return fmt.Errorf("direct submit: %w", err)
		}
		for { // one job at a time, as a closed-loop client would
			j, err := svc.jobs.Get(job.ID)
			if err != nil {
				return err
			}
			if terminalState(j.State) || ctx.Err() != nil {
				break
			}
			time.Sleep(pollInterval)
		}
	}
	r.set("sched.submit_p50_ms", sub.summary().P50, "ms")

	// Only sched may import the job store (the repository's architecture
	// test enforces it), so a commit is timed through the smallest
	// transaction the scheduler exposes: one limits row, fsynced.
	var commit dist
	for i := 0; i < storeCommits; i++ {
		id := r.tr.start("jobstore", "SetLimits commit", 0, int64(i))
		t0 := time.Now()
		err := svc.jobs.SetLimits("probe", sched.Limits{MaxConcurrent: 1 + i%2, MaxQueued: 64})
		commit.add(msSince(t0))
		r.tr.end(id)
		if err != nil {
			return fmt.Errorf("limits commit: %w", err)
		}
	}
	r.set("jobstore.commit_p50_ms", commit.summary().P50, "ms")
	return nil
}
