package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro"
)

// The ingest-http workload POSTs 256-click batches to onepassd
// -query clickcount at default flags: a closed-loop phase with one
// writer per core measures the service's capacity, then an open-loop
// phase offers half of it, with GET /v1/stats reads mixed in at a low
// fixed rate.
//
// The offered rate is set per run, not fixed across runs, because this
// host's capacity swung between about 570 and 4,900 acks/s within an
// hour: a fixed 2,000 ops/s was half of it in one period and a growing
// backlog (acks 8-16 s late) in another, while below ~25% utilization
// runs alternated between two latency modes.
const (
	ingestBatch     = 256  // clicks per POST (~20 KB)
	ingestBodies    = 512  // distinct pre-generated bodies, cycled
	ingestUsers     = 4096 // user population of the click bodies
	openLoad        = 0.5  // offered open-loop rate as a share of the closed-loop rate
	statsRate       = 20   // GET /v1/stats per second in the open-loop phase
	openShare       = 0.6  // share of --seconds spent in the open-loop phase
	tailWindow      = 2.0  // seconds per window of the ack tail (~4000 acks: p99 rests on ~40)
	serviceSetups   = 15   // set-ups per run; setup_s is their median (a daemon start is ~5 ms)
	topUsersChecked = 20
	directIngests   = 1000 // direct Ingester.Ingest calls in the traced run
	fsyncProbes     = 300
	foldWaitTimeout = 30 * time.Second
)

// ingestLoad is the generated input: the bodies and, per body, its
// clicks per user, so the acked total per user is known exactly.
type ingestLoad struct {
	bodies  [][]byte
	records [][][]byte         // bodies split into records, for direct Ingest calls
	tally   []map[string]int64 // per body: user → clicks
}

func genIngestLoad(seed int64) *ingestLoad {
	spec := onepass.ClickStreamSpec{
		PhysBytes: 1, ChunkPhys: 1, Seed: seed,
		Users: ingestUsers, UserSkew: 1.2, URLs: 20_000, URLSkew: 1.3,
		Duration: time.Hour, Jitter: 2 * time.Second,
	}
	rec := int64(onepass.SyntheticClickStream(spec).RecordBytes())
	spec.ChunkPhys = ingestBatch * rec
	spec.PhysBytes = ingestBodies * ingestBatch * rec
	cs := onepass.SyntheticClickStream(spec)
	l := &ingestLoad{}
	for i := 0; i < cs.NumChunks(); i++ {
		body := cs.ChunkBytes(i)
		recs := bytes.Split(bytes.TrimSuffix(body, []byte("\n")), []byte("\n"))
		t := map[string]int64{}
		for _, r := range recs {
			t[string(r[14:22])]++
		}
		l.bodies = append(l.bodies, body)
		l.records = append(l.records, recs)
		l.tally = append(l.tally, t)
	}
	return l
}

// loadStats is what one phase of load observed.
type loadStats struct {
	acks      dist      // ack latency, from when each request was due
	ackT      []float64 // when each ack (or failure) completed, seconds into the phase
	stats     dist      // GET /v1/stats latency, from when it was due
	late      dist      // how late the sender woke for a due request
	ok        int64
	attempted int64
	failed    int64
	gammaMin  float64
	perBody   []int64 // acks per body
}

func newLoadStats() *loadStats {
	return &loadStats{perBody: make([]int64, ingestBodies), gammaMin: 1}
}

func (s *loadStats) merge(o *loadStats) {
	s.acks.ms = append(s.acks.ms, o.acks.ms...)
	s.ackT = append(s.ackT, o.ackT...)
	s.stats.ms = append(s.stats.ms, o.stats.ms...)
	s.late.ms = append(s.late.ms, o.late.ms...)
	s.ok += o.ok
	s.attempted += o.attempted
	s.failed += o.failed
	s.gammaMin = math.Min(s.gammaMin, o.gammaMin)
	for i, n := range o.perBody {
		s.perBody[i] += n
	}
}

// post sends one batch; it reports whether the batch was acked.
func (l *ingestLoad) post(c *http.Client, base string, body int) bool {
	code, _, err := do(c, http.MethodPost, base+"/v1/events", "text/plain", l.bodies[body])
	return err == nil && code == http.StatusOK
}

// getStats reads /v1/stats and returns the γ it reported.
func getStats(c *http.Client, base string) (float64, bool) {
	code, data, err := do(c, http.MethodGet, base+"/v1/stats", "", nil)
	if err != nil || code != http.StatusOK {
		return 0, false
	}
	var st struct {
		Gamma float64 `json:"gamma"`
	}
	if json.Unmarshal(data, &st) != nil {
		return 0, false
	}
	return st.Gamma, true
}

// openLoop offers rate ops/s for d, on conns connections; about
// statsRate of them are stats reads. Op i is due at start + i/rate
// whether or not earlier ops have finished; its latency runs from that
// due time, so a stall also charges every op queued behind it. A failed
// op counts as missing every limit.
func (l *ingestLoad) openLoop(ctx context.Context, c *http.Client, base string, conns int, rate float64, d time.Duration, tr *tracer) *loadStats {
	interval := time.Duration(float64(time.Second) / rate)
	n := int64(d / interval)
	statsEvery := max(int64(rate/statsRate), 2)
	start := time.Now().Add(time.Millisecond)
	var next atomic.Int64
	parts := make([]*loadStats, conns)
	var wg sync.WaitGroup
	for w := range parts {
		parts[w] = newLoadStats()
		wg.Add(1)
		go func(s *loadStats) {
			defer wg.Done()
			for ctx.Err() == nil {
				i := next.Add(1) - 1
				if i >= n {
					return
				}
				due := start.Add(time.Duration(i) * interval)
				if wait := time.Until(due); wait > 0 {
					sleepPrecise(wait)
					s.late.add(msSince(due))
				}
				s.attempted++
				if i%statsEvery == statsEvery-1 {
					id := tr.start("serve", "GET /v1/stats", 0, i)
					g, ok := getStats(c, base)
					tr.end(id)
					if !ok {
						s.stats.fail()
						s.failed++
						continue
					}
					s.stats.add(msSince(due))
					s.gammaMin = math.Min(s.gammaMin, g)
					continue
				}
				body := int(i % ingestBodies)
				id := tr.start("serve", "POST /v1/events", 0, i)
				ok := l.post(c, base, body)
				tr.end(id)
				s.ackT = append(s.ackT, time.Since(start).Seconds())
				if !ok {
					s.acks.fail()
					s.failed++
					continue
				}
				s.acks.add(msSince(due))
				s.ok++
				s.perBody[body]++
			}
		}(parts[w])
	}
	wg.Wait()
	total := newLoadStats()
	for _, p := range parts {
		total.merge(p)
	}
	return total
}

// closedLoop runs conns writers that each POST their next batch as soon
// as the previous one is acked, for d.
func (l *ingestLoad) closedLoop(ctx context.Context, c *http.Client, base string, conns int, d time.Duration, tr *tracer) *loadStats {
	start := time.Now()
	deadline := start.Add(d)
	var next atomic.Int64
	parts := make([]*loadStats, conns)
	var wg sync.WaitGroup
	for w := range parts {
		parts[w] = newLoadStats()
		wg.Add(1)
		go func(s *loadStats) {
			defer wg.Done()
			for ctx.Err() == nil && time.Now().Before(deadline) {
				i := next.Add(1) - 1
				body := int(i % ingestBodies)
				s.attempted++
				t0 := time.Now()
				id := tr.start("serve", "POST /v1/events", 0, i)
				ok := l.post(c, base, body)
				tr.end(id)
				s.ackT = append(s.ackT, time.Since(start).Seconds())
				if !ok {
					s.acks.fail()
					s.failed++
					continue
				}
				s.acks.add(msSince(t0))
				s.ok++
				s.perBody[body]++
			}
		}(parts[w])
	}
	wg.Wait()
	total := newLoadStats()
	for _, p := range parts {
		total.merge(p)
	}
	return total
}

func msSince(t time.Time) float64 { return float64(time.Since(t)) / 1e6 }

// sleepPrecise blocks the calling thread in nanosleep(2). The runtime's
// own timers wake an idle process through epoll with millisecond
// granularity, which made the open-loop sender 0.5 ms late at the
// median: half of a typical ack latency, measured against the
// generator instead of the service.
func sleepPrecise(d time.Duration) {
	ts := syscall.NsecToTimespec(int64(d))
	for syscall.Nanosleep(&ts, &ts) == syscall.EINTR {
	}
}

func runIngest(ctx context.Context, r *run) error {
	conns := r.opts.workers
	var load *ingestLoad
	svc, err := setUpService(ctx, r, false, func() { load = genIngestLoad(r.opts.seed) })
	if err != nil {
		return err
	}
	defer svc.stop()

	c := newClient(conns)
	measure := time.Duration(r.opts.seconds * float64(time.Second))
	openDur := time.Duration(float64(measure) * openShare)
	closedDur := measure - openDur

	all := newLoadStats()
	closed := load.closedLoop(ctx, c, svc.base, conns, closedDur, nil)
	all.merge(closed)
	// The closed-loop rate is a median over 1 s windows, so one bad
	// second (a neighbour's burst, a slow fsync) moves it by one rank
	// instead of setting it.
	rate := windowMedian(windows(closed.ackT, closed.acks.ms, 1, closedDur.Seconds()), func(s []float64) float64 {
		ok := 0
		for _, v := range s {
			if v < missed {
				ok++
			}
		}
		return float64(ok)
	})
	if rate < 1 {
		return fmt.Errorf("closed loop acked nothing (%d failed of %d)", closed.failed, closed.attempted)
	}
	offered := openLoad * rate
	var open *loadStats
	if r.tr == nil {
		open = load.openLoop(ctx, c, svc.base, conns, offered, openDur, nil)
	} else if open, err = tracedIngestOpen(ctx, r, svc, load, c, offered, openDur); err != nil {
		return err
	}
	all.merge(open)

	// The ack tail is likewise a median over windows of the phase.
	o, st := open.acks.summary(), open.stats.summary()
	tailWins := windows(open.ackT, open.acks.ms, tailWindow, openDur.Seconds())
	tailPct := 99.0
	for _, w := range tailWins {
		tailPct = min(tailPct, tailPercentile(len(w)))
	}
	tail := windowMedian(tailWins, func(s []float64) float64 { return percentile(s, tailPct) })
	r.set("latency_p50_ms", o.P50, "ms")
	r.set("throughput_per_s", rate, "1/s")
	r.set("side_p50_ms", st.P50, "ms")
	r.note("ack_p50_ms", o.P50, "ms")
	r.note(fmt.Sprintf("ack_p%g_ms", tailPct), tail, "ms")
	r.note(fmt.Sprintf("ack_p%g_ms_whole_phase", o.TailPct), o.Tail, "ms")
	r.note("ack_samples", float64(o.N), "count")
	r.note("acks_per_s", rate, "1/s")
	r.note("stats_p50_ms", st.P50, "ms")
	r.note("stats_samples", float64(st.N), "count")
	r.note("open_offered_per_s", offered, "1/s")
	lateP99 := percentile(open.late.sorted(), 99)
	r.note("gen_late_p99_ms", lateP99, "ms")
	r.set("gen.late_p99_ms", lateP99, "ms")
	r.attempted += all.attempted
	r.failed += all.failed

	if err := checkIngestAnswers(ctx, r, svc, c, load, all); err != nil {
		return err
	}
	r.set("peak_rss_mb", svc.peakRSSMB(), "MB")
	if r.tr != nil {
		p50, err := ingestProbes(r, load)
		if err != nil {
			return err
		}
		r.set("serve.http_overhead_ms", o.P50-p50, "ms")
	}
	return svc.stop()
}

// tracedIngestOpen runs the open-loop phase in two halves, untraced
// and then traced with the profiler on, sampling the fold queue
// in-process; the gap between the halves' ack medians is the tracing
// overhead.
func tracedIngestOpen(ctx context.Context, r *run, svc *service, load *ingestLoad, c *http.Client, rate float64, d time.Duration) (*loadStats, error) {
	conns := r.opts.workers
	a := load.openLoop(ctx, c, svc.base, conns, rate, d/2, nil)
	prof, err := startProfile()
	if err != nil {
		return nil, err
	}
	before := svc.ing.Metrics()
	var lagMax atomic.Int64
	stop := make(chan struct{})
	sampled := make(chan struct{})
	go func() {
		defer close(sampled)
		tick := time.NewTicker(2 * time.Millisecond)
		defer tick.Stop()
		for {
			if q := int64(svc.ing.Metrics().QueueDepth); q > lagMax.Load() {
				lagMax.Store(q)
			}
			select {
			case <-stop:
				return
			case <-tick.C:
			}
		}
	}()
	b := load.openLoop(ctx, c, svc.base, conns, rate, d/2, r.tr)
	close(stop)
	<-sampled
	after := svc.ing.Metrics()
	if err := prof.finish(r, int(b.ok)); err != nil {
		return nil, err
	}
	r.set("ingest.checkpoint_mb", float64(after.CheckpointBytes-before.CheckpointBytes)/1e6, "MB")
	r.set("ingest.fold_lag_max", float64(lagMax.Load()), "count")
	r.set("ingest.gamma_min", b.gammaMin, "frac")
	r.set("trace.overhead_frac", b.acks.summary().P50/a.acks.summary().P50-1, "frac")
	for i := range b.ackT {
		b.ackT[i] += (d / 2).Seconds() // one timeline for the whole phase
	}
	a.merge(b)
	return a, nil
}

func ratio(a, b int64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// checkIngestAnswers waits until every acked batch is folded, then
// checks the served counts against the generator's own tally: the
// acked record total, and the click count of each of the top users.
func checkIngestAnswers(ctx context.Context, r *run, svc *service, c *http.Client, load *ingestLoad, all *loadStats) error {
	want := map[string]int64{}
	var acked int64
	for b, n := range all.perBody {
		acked += n * ingestBatch
		for u, k := range load.tally[b] {
			want[u] += n * k
		}
	}
	type stats struct {
		Gamma         float64 `json:"gamma"`
		AckedRecords  int64   `json:"acked_records"`
		FoldedRecords int64   `json:"folded_records"`
		Answers       []struct {
			Key   string `json:"key"`
			Value string `json:"value"`
		} `json:"answers"`
	}
	var st stats
	deadline := time.Now().Add(foldWaitTimeout)
	for {
		code, data, err := do(c, http.MethodGet, svc.base+"/v1/stats?limit=-1", "", nil)
		if err != nil || code != http.StatusOK {
			return fmt.Errorf("stats read after load: %d %v", code, err)
		}
		if err := json.Unmarshal(data, &st); err != nil {
			return err
		}
		if st.FoldedRecords >= st.AckedRecords {
			break
		}
		if time.Now().After(deadline) || ctx.Err() != nil {
			return fmt.Errorf("fold did not catch up: %d of %d records folded", st.FoldedRecords, st.AckedRecords)
		}
		time.Sleep(5 * time.Millisecond)
	}
	code, data, err := do(c, http.MethodGet, svc.base+"/v1/stats?limit=0", "", nil)
	if err != nil || code != http.StatusOK {
		return fmt.Errorf("final stats read: %d %v", code, err)
	}
	if err := json.Unmarshal(data, &st); err != nil {
		return err
	}
	r.attempted++
	if st.AckedRecords != acked {
		r.mismatch("service acked %d records, the generator saw %d acked", st.AckedRecords, acked)
	}
	got := map[string]string{}
	for _, a := range st.Answers {
		got[a.Key] = a.Value
	}
	users := make([]string, 0, len(want))
	for u := range want {
		users = append(users, u)
	}
	sort.Slice(users, func(i, j int) bool {
		if want[users[i]] != want[users[j]] {
			return want[users[i]] > want[users[j]]
		}
		return users[i] < users[j]
	})
	for _, u := range users[:min(topUsersChecked, len(users))] {
		if n, err := strconv.ParseInt(got[u], 10, 64); err != nil || n != want[u] {
			r.mismatch("user %s: served count %q, generator tally %d", u, got[u], want[u])
		}
	}
	r.notes = append(r.notes, fmt.Sprintf("answers checked: %d acked records, top %d users' counts (top user %s: %d clicks)", acked, topUsersChecked, users[0], want[users[0]]))
	return nil
}

// ingestProbes calls the ingest layer directly, without HTTP, on the
// same batches, and measures the device floor: one batch appended and
// fsynced in the WAL's directory. It returns the direct ingest p50.
func ingestProbes(r *run, load *ingestLoad) (float64, error) {
	walDir := filepath.Join(r.dir, "probe", "wal")
	ing, err := openIngester(walDir)
	if err != nil {
		return 0, err
	}
	var lat dist
	for i := 0; i < directIngests; i++ {
		id := r.tr.start("ingest", "Ingest", 0, int64(i))
		t0 := time.Now()
		_, err := ing.Ingest(load.records[i%ingestBodies])
		ms := msSince(t0)
		r.tr.end(id)
		if err != nil {
			ing.Abort()
			return 0, fmt.Errorf("direct ingest: %w", err)
		}
		lat.add(ms)
	}
	m := ing.Metrics()
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	if err := ing.Drain(ctx); err != nil {
		return 0, err
	}
	s := lat.sorted()
	r.set("ingest.ingest_p50_ms", percentile(s, 50), "ms")
	r.set("ingest.ingest_p99_ms", percentile(s, 99), "ms")
	r.set("ingest.wal_syncs_per_ack", ratio(m.WALSyncs, m.AcceptedBatches), "ratio")
	r.set("ingest.wal_bytes_per_byte", ratio(m.WALAppendedBytes, m.AcceptedBytes), "ratio")

	f, err := os.OpenFile(filepath.Join(walDir, "fsync-probe"), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	var fs dist
	for i := 0; i < fsyncProbes; i++ {
		t0 := time.Now()
		if _, err := f.Write(load.bodies[i%ingestBodies]); err != nil {
			return 0, err
		}
		if err := f.Sync(); err != nil {
			return 0, err
		}
		fs.add(msSince(t0))
	}
	r.set("disk.fsync_p50_ms", fs.summary().P50, "ms")
	return percentile(s, 50), nil
}
