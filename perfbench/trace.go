package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"runtime/metrics"
	"runtime/pprof"
	"sort"
	"sync"
	"syscall"
	"time"

	"repro"
)

// span is one call from the benchmark into a layer. Spans of one
// operation share a Trace id; Parent is 0 for a root span.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent,omitempty"`
	Trace  int64  `json:"trace"`
	Layer  string `json:"layer"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer
// records nothing.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// start opens a span and returns its id (0 on a nil tracer).
func (t *tracer) start(layer, name string, parent int, trace int64) int {
	if t == nil {
		return 0
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Trace: trace, Layer: layer, Name: name, Start: now, End: -1})
	return len(t.spans)
}

func (t *tracer) end(id int) {
	if t == nil || id == 0 {
		return
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	t.spans[id-1].End = now
	t.mu.Unlock()
}

func (t *tracer) write(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	data, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// printSelfTimes prints each layer's span count, total time and self
// time: its spans' duration minus the part covered by child spans.
func (t *tracer) printSelfTimes() {
	t.mu.Lock()
	defer t.mu.Unlock()
	type agg struct {
		n           int
		total, self int64
	}
	child := map[int]int64{}
	for _, s := range t.spans {
		if s.Parent != 0 && s.End >= 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	byLayer := map[string]*agg{}
	for _, s := range t.spans {
		if s.End < 0 {
			continue
		}
		a := byLayer[s.Layer]
		if a == nil {
			a = &agg{}
			byLayer[s.Layer] = a
		}
		a.n++
		a.total += s.End - s.Start
		a.self += s.End - s.Start - child[s.ID]
	}
	layers := make([]string, 0, len(byLayer))
	for l := range byLayer {
		layers = append(layers, l)
	}
	sort.Strings(layers)
	fmt.Println("spans by layer (count, total, self):")
	for _, l := range layers {
		a := byLayer[l]
		fmt.Printf("  %-10s %7d %12s %12s\n", l, a.n, time.Duration(a.total).Round(time.Microsecond), time.Duration(a.self).Round(time.Microsecond))
	}
}

// profile samples the Go runtime and the CPU profiler over a traced
// phase: allocation and GC counters, the peak live heap, process CPU
// time, and the CPU profile attributed to repository packages.
type profile struct {
	cpu     bytes.Buffer
	before  []metrics.Sample
	rusage  float64
	wall    time.Time
	stop    chan struct{}
	done    chan struct{}
	peakMu  sync.Mutex
	peakMiB float64
	cpuUtil float64 // process CPU ÷ (wall × GOMAXPROCS), set by finish
}

var rtNames = []string{
	"/gc/heap/allocs:bytes",
	"/gc/heap/allocs:objects",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
}

func readRT() []metrics.Sample {
	s := make([]metrics.Sample, len(rtNames))
	for i, n := range rtNames {
		s[i].Name = n
	}
	metrics.Read(s)
	return s
}

func rtFloat(v metrics.Value) float64 {
	switch v.Kind() {
	case metrics.KindUint64:
		return float64(v.Uint64())
	case metrics.KindFloat64:
		return v.Float64()
	}
	return 0
}

func processCPUSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds()
}

func startProfile() (*profile, error) {
	p := &profile{stop: make(chan struct{}), done: make(chan struct{})}
	runtime.GC()
	if err := pprof.StartCPUProfile(&p.cpu); err != nil {
		return nil, fmt.Errorf("start cpu profile: %w", err)
	}
	p.before = readRT()
	p.rusage = processCPUSeconds()
	p.wall = time.Now()
	go p.sampleHeap()
	return p, nil
}

func (p *profile) sampleHeap() {
	defer close(p.done)
	s := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
	tick := time.NewTicker(5 * time.Millisecond)
	defer tick.Stop()
	for {
		metrics.Read(s)
		mib := float64(s[0].Value.Uint64()) / 1e6
		p.peakMu.Lock()
		p.peakMiB = max(p.peakMiB, mib)
		p.peakMu.Unlock()
		select {
		case <-p.stop:
			return
		case <-tick.C:
		}
	}
}

// finish stops profiling and sets the runtime and CPU metrics; ops is
// the number of workload operations (jobs, acks) in the phase.
func (p *profile) finish(r *run, ops int) error {
	pprof.StopCPUProfile()
	close(p.stop)
	<-p.done
	after := readRT()
	wall := time.Since(p.wall).Seconds()
	cpu := processCPUSeconds() - p.rusage
	delta := func(i int) float64 { return rtFloat(after[i].Value) - rtFloat(p.before[i].Value) }
	if ops < 1 {
		ops = 1
	}
	r.set("runtime.alloc_mb_per_op", delta(0)/1e6/float64(ops), "MB")
	r.set("runtime.allocs_per_op", delta(1)/float64(ops), "count")
	if tot := delta(3); tot > 0 {
		r.set("runtime.gc_cpu_frac", delta(2)/tot, "frac")
	}
	r.set("runtime.heap_peak_mb", p.peakMiB, "MB")
	p.cpuUtil = cpu / (wall * float64(runtime.GOMAXPROCS(0)))
	r.note("process_cpu_util", p.cpuUtil, "frac")

	shares, samples, err := attributeProfile(p.cpu.Bytes())
	if err != nil {
		return err
	}
	byName := map[string]float64{}
	for name, v := range shares {
		if _, known := layerMetricUnits[name]; !known {
			name = "cpu.other"
		}
		byName[name] += v
	}
	for name, v := range byName {
		r.set(name, v, "frac")
	}
	r.note("cpu_profile_samples", float64(samples), "count")
	return nil
}

// tracedBatch runs the batch workload's measured phase twice: first
// untraced, then with spans and the profiler on. The per-layer metrics
// come from the second half; the gap between the halves' median job
// times is the tracing overhead.
func tracedBatch(ctx context.Context, r *run, measure time.Duration, timed func() error, reports *[]*onepass.Report, jobMS *[]float64) error {
	if err := loopUntil(ctx, measure/2, 2, timed); err != nil {
		return err
	}
	untraced := median(*jobMS)
	first := len(*reports)
	prof, err := startProfile()
	if err != nil {
		return err
	}
	err = loopUntil(ctx, measure/2, 2, func() error {
		id := r.tr.start("realexec", "RunReal", 0, int64(len(*reports)))
		defer r.tr.end(id)
		return timed()
	})
	if err != nil {
		pprof.StopCPUProfile()
		return err
	}
	traced := (*reports)[first:]
	if err := prof.finish(r, len(traced)); err != nil {
		return err
	}
	r.set("trace.overhead_frac", median((*jobMS)[first:])/untraced-1, "frac")

	var mapS, redS, skew []float64
	for _, rep := range traced {
		mapS = append(mapS, rep.MapFinishTime.Seconds())
		redS = append(redS, (rep.RunningTime - rep.MapFinishTime).Seconds())
		var spans []float64
		for _, s := range rep.Spans {
			if s.Kind == "reduce" {
				spans = append(spans, float64(s.End-s.Start))
			}
		}
		if m := median(spans); m > 0 {
			sort.Float64s(spans)
			skew = append(skew, spans[len(spans)-1]/m)
		}
	}
	r.set("realexec.map_s", median(mapS), "s")
	r.set("realexec.reduce_s", median(redS), "s")
	r.set("realexec.reduce_skew", median(skew), "ratio")
	r.set("realexec.cpu_util", prof.cpuUtil, "frac")

	last := traced[len(traced)-1]
	r.set("storage.map_spill_mb", float64(last.MapSpillBytes)/1e6, "MB")
	r.set("storage.shuffle_mb", float64(last.MapOutputBytes)/1e6, "MB")
	r.set("storage.reduce_spill_mb", float64(last.ReduceSpillBytes)/1e6, "MB")
	r.set("storage.io_requests", float64(last.TotalIORequests), "count")
	r.set("mr.map_output_records", float64(last.MapOutputRecords), "count")
	r.set("mr.output_records", float64(last.OutputRecords), "count")
	return nil
}
