package main

import (
	"context"
	_ "embed"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"repro"
)

// The batch workloads run sessionization over a click log of 64 GB
// logical at 1/512 (about 128 MB physical), materialized once in set-up
// so the timed jobs run only the data plane.
const (
	batchScale        = 1.0 / 512
	batchLogicalBytes = 64e9
	batchChunkLogical = 64e6
	sessionState      = 512
	batchSetupRounds  = 3
	batchMinJobs      = 3
)

var (
	smPlatform  = onepass.SortMerge
	incPlatform = onepass.INCHash
)

// batchPlan is one sessionization job over the seed's input, built the
// way cmd/onepass builds it.
type batchPlan struct {
	cluster onepass.Cluster
	hints   onepass.Hints
	users   int
	model   onepass.CostModel
}

func newBatchPlan() batchPlan {
	m := onepass.DefaultModel(batchScale)
	cluster := onepass.PaperCluster(m)
	cluster.MergeFactor = onepass.ModelOptimize(
		onepass.ModelWorkload{D: batchLogicalBytes, Km: 1, Kr: 1},
		onepass.ModelHardware{N: cluster.Nodes, Bm: 140e6, Br: 500e6},
		cluster.R, []float64{batchChunkLogical}, []int{4, 8, 16, 32, 64, 128},
	).F
	// cmd/onepass's default population: ~2.2x what the reducers' memory holds.
	users := int(2.2 * float64(int64(cluster.R*cluster.Nodes)*cluster.ReduceBuffer) / float64(sessionState+50))
	hints := onepass.Hints{Km: 1.15, DistinctKeys: int64(users)}
	hints.Kr = 24 * float64(users) / batchLogicalBytes
	return batchPlan{cluster: cluster, hints: hints, users: users, model: m}
}

func newSessionization() onepass.Query {
	return onepass.Sessionization(5*time.Minute, sessionState, 5*time.Second)
}

// materialize generates the seed's click log on workers goroutines and
// wraps it as an in-memory input.
func (p batchPlan) materialize(seed int64, workers int) onepass.Input {
	cs := onepass.SyntheticClickStream(onepass.ClickStreamSpec{
		PhysBytes: p.model.ScaleBytes(int64(batchLogicalBytes)),
		ChunkPhys: p.model.ScaleBytes(int64(batchChunkLogical)),
		Seed:      seed,
		Users:     p.users,
		UserSkew:  1.2,
		URLs:      20_000,
		URLSkew:   1.3,
		Duration:  24 * time.Hour,
		Jitter:    2 * time.Second,
	})
	parts := make([][]byte, cs.NumChunks())
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < len(parts); i += workers {
				parts[i] = cs.ChunkBytes(i)
			}
		}(w)
	}
	wg.Wait()
	size := 0
	for _, b := range parts {
		size += len(b)
	}
	data := make([]byte, 0, size)
	for i, b := range parts {
		data = append(data, b...)
		parts[i] = nil
	}
	return onepass.BytesInput("clicks", data, p.model.ScaleBytes(int64(batchChunkLogical)))
}

func (p batchPlan) job(in onepass.Input, platform onepass.Platform, seed int64, collect bool) onepass.Job {
	return onepass.Job{
		Input:         in,
		Platform:      platform,
		Cluster:       p.cluster,
		Hints:         p.hints,
		ScanEvery:     4096,
		Seed:          seed,
		CollectOutput: collect,
	}
}

// answer is what a sessionization job must produce for a seed on every
// platform. Platforms may number a user's sessions differently (the
// documented streaming semantics the repository's own conformance
// tests allow), so the cross-platform digest covers each output click
// without its session id; the full output digest is per platform.
type answer struct {
	OutputRecords    int64  `json:"output_records"`
	OutputBytes      int64  `json:"output_bytes"`
	MapOutputRecords int64  `json:"map_output_records"`
	ClickHash        string `json:"click_hash,omitempty"`
}

// seedAnswers is one seed's row of answers.json.
type seedAnswers struct {
	answer
	OutputHash map[string]string `json:"output_hash"` // platform → full output digest
}

func answerOf(rep *onepass.Report) answer {
	a := answer{OutputRecords: rep.OutputRecords, OutputBytes: rep.OutputBytes, MapOutputRecords: rep.MapOutputRecords}
	if rep.Outputs != nil {
		a.ClickHash = outputHash(rep.Outputs, true)
	}
	return a
}

// outputHash is an order-independent digest of a job's output: the
// wrapping sum of one FNV-1a hash per record. With clicksOnly the
// session id (the value's first field) is left out.
func outputHash(outs [][2]string, clicksOnly bool) string {
	var sum uint64
	h := fnv.New64a()
	for _, kv := range outs {
		v := kv[1]
		if clicksOnly {
			if _, rest, ok := strings.Cut(v, "\t"); ok {
				v = rest
			}
		}
		h.Reset()
		h.Write([]byte(kv[0]))
		h.Write([]byte{0})
		h.Write([]byte(v))
		sum += h.Sum64()
	}
	return fmt.Sprintf("%d:%016x", len(outs), sum)
}

// answers.json holds the answers recorded for a range of seeds
// (perfbench -record-answers); a seed outside it is checked against a
// run of the other platform instead.
//
//go:embed answers.json
var answersJSON []byte

func recordedAnswer(seed int64) (seedAnswers, bool) {
	var table map[string]seedAnswers
	if err := json.Unmarshal(answersJSON, &table); err != nil {
		return seedAnswers{}, false
	}
	a, ok := table[strconv.FormatInt(seed, 10)]
	return a, ok
}

func runBatch(ctx context.Context, r *run, platform onepass.Platform) error {
	p := newBatchPlan()
	seed := r.opts.seed

	// Set-up: materialize the input several times and keep the median.
	var setups []float64
	var in onepass.Input
	for i := 0; i < batchSetupRounds; i++ {
		in = nil
		runtime.GC()
		t0 := time.Now()
		in = p.materialize(seed, r.opts.workers)
		setups = append(setups, time.Since(t0).Seconds())
	}
	debug.FreeOSMemory()
	r.set("setup_s", median(setups), "s")

	runJob := func(collect bool) (*onepass.Report, time.Duration, error) {
		t0 := time.Now()
		rep, err := onepass.RunReal(p.job(in, platform, seed, collect), newSessionization, r.opts.workers)
		return rep, time.Since(t0), err
	}

	// One untimed warm-up job: the first job in a process runs on a
	// cold heap and is 25-40% slower than the rest.
	if _, _, err := runJob(false); err != nil {
		return err
	}

	var reports []*onepass.Report
	var jobMS, mapMS []float64
	timed := func() error {
		rep, d, err := runJob(false)
		r.attempted++
		if err != nil {
			return err
		}
		reports = append(reports, rep)
		jobMS = append(jobMS, float64(d)/1e6)
		mapMS = append(mapMS, float64(rep.MapFinishTime)/1e6)
		return nil
	}
	measure := time.Duration(r.opts.seconds * float64(time.Second))
	if r.tr == nil {
		t0 := time.Now()
		if err := loopUntil(ctx, measure, batchMinJobs, timed); err != nil {
			return err
		}
		elapsed := time.Since(t0).Seconds()
		r.set("throughput_per_s", float64(len(jobMS))/elapsed, "1/s")
	} else if err := tracedBatch(ctx, r, measure, timed, &reports, &jobMS); err != nil {
		return err
	}
	d := dist{ms: jobMS}
	s := d.summary()
	r.set("latency_p50_ms", s.P50, "ms")
	r.set("side_p50_ms", median(mapMS), "ms")
	r.set("peak_rss_mb", selfPeakRSSMB(), "MB")
	r.note("job_s", s.P50/1e3, "s")
	r.note("job_samples", float64(s.N), "count")
	sorted := d.sorted()
	r.note("job_min_ms", sorted[0], "ms")
	r.note("job_max_ms", sorted[len(sorted)-1], "ms")

	r.notes = append(r.notes, fmt.Sprintf("job_s is the median of %d warm %s jobs", s.N, platform))

	// Answer checks: every timed job against one untimed CollectOutput
	// job, and that job against the answer recorded for the seed (or,
	// for a seed with no record, against the other platform's job).
	col, _, err := runJob(true)
	if err != nil {
		return err
	}
	got := answerOf(col)
	full := outputHash(col.Outputs, false)
	col = nil
	for i, rep := range reports {
		if a := answerOf(rep); a.OutputRecords != got.OutputRecords || a.OutputBytes != got.OutputBytes || a.MapOutputRecords != got.MapOutputRecords {
			r.mismatch("timed job %d answered %+v, collect job %+v", i, a, got)
		}
	}
	rec, ok := recordedAnswer(seed)
	want, source := rec.answer, "recorded answer"
	if ok {
		if h := rec.OutputHash[platform.String()]; h != full {
			r.mismatch("%s output digest %s, recorded %s for seed %d", platform, full, h, seed)
		}
	} else {
		other := incPlatform
		if platform == incPlatform {
			other = smPlatform
		}
		rep, err := onepass.RunReal(p.job(in, other, seed, true), newSessionization, r.opts.workers)
		if err != nil {
			return err
		}
		want, source = answerOf(rep), other.String()+" job"
	}
	if got != want {
		r.mismatch("%s answered %+v, %s for seed %d is %+v", platform, got, source, seed, want)
	}
	r.notes = append(r.notes, fmt.Sprintf("answers checked against the %s: %d output records, click digest %s", source, want.OutputRecords, want.ClickHash))
	return nil
}

// selfPeakRSSMB is this process's peak resident set (VmHWM) in MB.
func selfPeakRSSMB() float64 { return peakRSSMB("self") }

// peakRSSMB reads VmHWM of /proc/<pid>/status.
func peakRSSMB(pid string) float64 {
	data, err := os.ReadFile("/proc/" + pid + "/status")
	if err != nil {
		var ru syscall.Rusage
		if pid == "self" && syscall.Getrusage(syscall.RUSAGE_SELF, &ru) == nil {
			return float64(ru.Maxrss) / 1024
		}
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(v), "kB")), 64)
			if err == nil {
				return kb / 1024
			}
		}
	}
	return 0
}

// recordAnswers prints the answer table for seeds FIRST-LAST, running
// both platforms and refusing when they disagree.
func recordAnswers(ctx context.Context, span string, workers int) error {
	lo, hi, ok := strings.Cut(span, "-")
	first, err1 := strconv.ParseInt(lo, 10, 64)
	last, err2 := strconv.ParseInt(hi, 10, 64)
	if !ok || err1 != nil || err2 != nil || last < first {
		return fmt.Errorf("bad -record-answers %q (want FIRST-LAST)", span)
	}
	p := newBatchPlan()
	table := map[string]seedAnswers{}
	for seed := first; seed <= last; seed++ {
		if err := ctx.Err(); err != nil {
			return err
		}
		in := p.materialize(seed, workers)
		row := seedAnswers{OutputHash: map[string]string{}}
		for i, pl := range []onepass.Platform{smPlatform, incPlatform} {
			rep, err := onepass.RunReal(p.job(in, pl, seed, true), newSessionization, workers)
			if err != nil {
				return err
			}
			a := answerOf(rep)
			if i > 0 && a != row.answer {
				return fmt.Errorf("seed %d: %s answered %+v, %s %+v", seed, smPlatform, row.answer, pl, a)
			}
			row.answer = a
			row.OutputHash[pl.String()] = outputHash(rep.Outputs, false)
		}
		table[strconv.FormatInt(seed, 10)] = row
		fmt.Fprintf(os.Stderr, "seed %d: %+v\n", seed, row)
	}
	keys := make([]string, 0, len(table))
	for k := range table {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { a, _ := strconv.Atoi(keys[i]); b, _ := strconv.Atoi(keys[j]); return a < b })
	var b strings.Builder
	b.WriteString("{\n")
	for i, k := range keys {
		v, _ := json.Marshal(table[k])
		sep := ","
		if i == len(keys)-1 {
			sep = ""
		}
		fmt.Fprintf(&b, "  %q: %s%s\n", k, v, sep)
	}
	b.WriteString("}\n")
	fmt.Print(b.String())
	return nil
}
