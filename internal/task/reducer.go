// Package task is the per-attempt data plane both execution backends
// run: the DES engine (internal/engine) and the wall-clock backend
// (internal/realexec) drive the same reducer bundle, output and
// snapshot writers, checkpoint images, and HOP map collector, and keep
// only their scheduling and fault triggers. A clean run is the
// zero-fault attempt: one attempt of the same body that fault plans
// restart.
//
// The package sits between the platform components (internal/core,
// internal/sortmerge) and the backends. It is written against
// substrate.Proc and storage.Store, so it cannot tell a simulated
// process from a goroutine, and it never imports a backend.
package task

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/kvenc"
	"repro/internal/mr"
	"repro/internal/sortmerge"
)

// MapSpan names a map attempt's span: the task's process name plus
// "#attempt" ("map000012#0"; DES re-executions and backups run under
// their own process names, as in "map000012.r0#2"). It and ReduceSpan
// are the one span-naming rule of both backends.
func MapSpan(proc string, attempt int) string { return fmt.Sprintf("%s#%d", proc, attempt) }

// ReduceSpan names a reduce attempt's span: the first attempt keeps the
// bare task name ("reduce007"), each restart appends ".a<attempt>"
// ("reduce007.a1").
func ReduceSpan(ridx, attempt int) string {
	if attempt == 0 {
		return fmt.Sprintf("reduce%03d", ridx)
	}
	return fmt.Sprintf("reduce%03d.a%d", ridx, attempt)
}

// Kind selects the platform reducer.
type Kind int

// Reducer kinds. HOP reduces through the sort-merge reducer.
const (
	SortMerge Kind = iota
	MRHash
	INCHash
	DINCHash
)

// ReducerConfig is a job's reducer configuration, resolved once per job
// (engine.JobSpec.ReducerConfig) and shared by every attempt; only
// Prefix varies per attempt.
type ReducerConfig struct {
	Kind        Kind
	Prefix      string // names the attempt's spill files (unique per store)
	Buffer      int64  // B_r
	Page        int64
	ReadSegment int64
	MergeFactor int

	ExpectedBytes        int64 // MR-hash: |D_r|
	ExpectedStateBytes   int64 // INC-hash: Δ
	ExpectedDistinctKeys int64 // DINC-hash: distinct keys per reducer
	CoverageThreshold    float64
	ScanEvery            int64
	SnapshotEvery        float64 // sort-merge: HOP snapshot period in map progress
}

// Reducer is one attempt's platform reducer; exactly one component is
// non-nil.
type Reducer struct {
	rt    *core.Runtime
	smr   *sortmerge.Reducer
	mrh   *core.MRHashReducer
	inch  *core.INCHashReducer
	dinch *core.DINCHashReducer

	snapEvery, nextSnap float64
}

// NewReducer builds the platform reducer from cfg on every attempt
// alike, so a replayed attempt recomputes identically. out receives
// INC/DINC-hash emissions, which happen during Feed.
func NewReducer(rt *core.Runtime, q mr.Query, cfg ReducerConfig, out mr.OutputWriter) *Reducer {
	r := &Reducer{rt: rt, snapEvery: cfg.SnapshotEvery, nextSnap: cfg.SnapshotEvery}
	switch cfg.Kind {
	case SortMerge:
		r.smr = sortmerge.NewReducer(rt, q, sortmerge.ReducerConfig{
			Prefix:      cfg.Prefix,
			Buffer:      cfg.Buffer,
			MergeFactor: cfg.MergeFactor,
			ReadSegment: cfg.ReadSegment,
		})
	case MRHash:
		r.mrh = core.NewMRHashReducer(rt, q, core.MRHashConfig{
			Prefix:        cfg.Prefix,
			MemBudget:     cfg.Buffer,
			Page:          cfg.Page,
			ReadSegment:   cfg.ReadSegment,
			ExpectedBytes: cfg.ExpectedBytes,
		})
	case INCHash:
		r.inch = core.NewINCHashReducer(rt, q, core.INCHashConfig{
			Prefix:             cfg.Prefix,
			MemBudget:          cfg.Buffer,
			Page:               cfg.Page,
			ReadSegment:        cfg.ReadSegment,
			ExpectedStateBytes: cfg.ExpectedStateBytes,
		}, out)
	case DINCHash:
		r.dinch = core.NewDINCHashReducer(rt, q, core.DINCHashConfig{
			Prefix:               cfg.Prefix,
			MemBudget:            cfg.Buffer,
			Page:                 cfg.Page,
			ReadSegment:          cfg.ReadSegment,
			ExpectedDistinctKeys: cfg.ExpectedDistinctKeys,
			KeyBytes:             16,
			CoverageThreshold:    cfg.CoverageThreshold,
			ScanEvery:            cfg.ScanEvery,
		}, out)
	}
	return r
}

// Feed folds one shuffled partition (its encoded segments, size bytes
// in all) into the reducer and charges the consume CPU through the
// runtime: a byte copy for sort-merge, whose merge CPU is charged at
// spill time, and one hash insert per record for the hash reducers,
// plus one combine on the incremental ones. src names the source map
// task when a segment fails to decode — a bug, since the payload
// already passed frame verification.
func (r *Reducer) Feed(segs [][]byte, size int64, src int) {
	m := r.rt.Model
	if r.smr != nil {
		for _, seg := range segs {
			r.smr.Consume(seg)
		}
		r.rt.ChargeCPU(m.CPUOps(m.CPUParseByte, size))
		return
	}
	var records int64
	for _, seg := range segs {
		it := kvenc.NewIterator(seg)
		for k, v, ok := it.Next(); ok; k, v, ok = it.Next() {
			records++
			switch {
			case r.mrh != nil:
				r.mrh.Consume(k, v)
			case r.inch != nil:
				r.inch.Consume(k, v)
			default:
				r.dinch.Consume(k, v)
			}
		}
		if err := it.Err(); err != nil {
			panic(fmt.Errorf("task: corrupt shuffle segment from map task %d: %w", src, err))
		}
	}
	per := m.CPUHashInsert
	if r.Checkpointable() {
		per += m.CPUCombine
	}
	r.rt.ChargeCPU(m.CPUOps(per, records))
}

// Checkpointable reports whether the reducer keeps incremental key
// state a checkpoint can capture (INC-hash and DINC-hash).
func (r *Reducer) Checkpointable() bool { return r.inch != nil || r.dinch != nil }

// Sorted reports whether finishing starts with a blocking final merge
// (sort-merge), which the DES gauges as its own phase.
func (r *Reducer) Sorted() bool { return r.smr != nil }

// NeedsMerge reports whether the sort-merge tree has a multi-pass merge
// pending.
func (r *Reducer) NeedsMerge() bool { return r.smr != nil && r.smr.Tree().NeedsMerge() }

// Merge drives pending merges to completion (inline, in Fig 2(a)'s
// "merge" phase).
func (r *Reducer) Merge() {
	for r.NeedsMerge() {
		r.smr.Tree().MergeOnce(r.rt.P, r.smr.Charger())
	}
}

// SnapshotDue reports whether map progress frac has crossed the next
// HOP snapshot point (§3.3(4)). Only a sort-merge reducer with a
// snapshot period takes snapshots, and never at completion.
func (r *Reducer) SnapshotDue(frac float64) bool {
	return r.smr != nil && r.snapEvery > 0 && frac >= r.nextSnap && r.nextSnap < 1
}

// Snapshot re-merges everything received so far into an approximate
// answer set, sinks its bytes like reduce output, and returns the
// snapshot records emitted, which count apart from the final answers.
func (r *Reducer) Snapshot(sink Sink) int64 {
	w := &snapshotWriter{}
	r.smr.Snapshot(w)
	if w.bytes > 0 {
		sink(w.bytes)
	}
	r.nextSnap += r.snapEvery
	return w.records
}

// PrepareFinal runs sort-merge's remaining multi-pass merge before the
// final one; the hash reducers have none.
func (r *Reducer) PrepareFinal() {
	if r.smr != nil {
		r.smr.PrepareFinal()
	}
}

// Finish runs the reduce function over everything consumed, emitting
// into out, and returns DINC-hash's approximate key count (0 on the
// other platforms).
func (r *Reducer) Finish(out mr.OutputWriter) (approxKeys int64) {
	switch {
	case r.smr != nil:
		r.smr.Finish(out)
	case r.mrh != nil:
		r.mrh.Finish(out)
	case r.inch != nil:
		r.inch.Finish()
	default:
		r.dinch.Finish()
		return r.dinch.ApproxKeys()
	}
	return 0
}

// snapshotWriter counts an approximate snapshot's records and bytes.
type snapshotWriter struct{ records, bytes int64 }

// Emit implements mr.OutputWriter.
func (w *snapshotWriter) Emit(key, value []byte) {
	w.records++
	w.bytes += int64(len(key) + len(value) + 2)
}
