package task

import (
	"fmt"

	"repro/internal/bytestore"
	"repro/internal/core"
	"repro/internal/kvenc"
	"repro/internal/mr"
)

// Collector is a map attempt's output component: sort-merge's Map
// Output Buffer, the Hash-based Map Output, or the HOP collector.
type Collector interface {
	Add(key, val []byte)
	Finish() (parts [][][]byte, mapped, emitted int64)
}

// Publish hands one HOP spill push to the backend's shuffle: name is
// its map-output file, spill its 1-based push index.
type Publish func(name string, spill int, parts [][][]byte, records int64)

// HOPCollector implements MapReduce Online-style pipelining (§2.2): map
// output is pushed to reducers eagerly, one sorted (optionally
// combined) spill at a time, and no map-side multi-pass merge happens.
// The merge work moves to the reducers, which is exactly the paper's
// characterization of HOP.
type HOPCollector struct {
	rt         *core.Runtime
	comb       mr.Combiner
	h1         interface{ Bucket(key []byte, n int) int }
	partitions int
	buffer     int64
	chunk      int
	publish    Publish

	buf     []byte // pooled collect buffer, returned to the pool by Finish
	spills  int
	mapped  int64
	emitted int64
}

// NewHOPCollector returns map task chunk's collector, pushing a spill
// whenever buffer bytes have accumulated.
func NewHOPCollector(rt *core.Runtime, q mr.Query, partitions int, buffer int64, chunk int, publish Publish) *HOPCollector {
	h := &HOPCollector{rt: rt, h1: rt.Fam.Fn(1), partitions: partitions, buffer: buffer, chunk: chunk, publish: publish,
		buf: bytestore.GetCollect(buffer)}
	h.comb, _ = q.(mr.Combiner)
	return h
}

// Add implements Collector.
func (h *HOPCollector) Add(key, val []byte) {
	h.mapped++
	h.buf = kvenc.AppendPartitionPair(h.buf, h.h1.Bucket(key, h.partitions), key, val)
	if int64(len(h.buf)) >= h.buffer {
		h.push()
	}
}

// push sorts the buffer, applies the combiner, and publishes the spill
// as its own shuffle unit.
func (h *HOPCollector) push() {
	if len(h.buf) == 0 {
		return
	}
	model := h.rt.Model
	sorted, n := h.rt.SortStreamTo(bytestore.Get(len(h.buf)), h.buf)
	h.rt.ChargeCPU(model.CPUSort(int64(n)))
	h.buf = h.buf[:0] // the collect buffer is recycled in place
	if h.comb != nil {
		out := bytestore.Get(len(sorted))
		var records int64
		if err := kvenc.MergeGroupsChecked([][]byte{sorted}, func(pk []byte, vals kvenc.ValueIter) bool {
			_, key := kvenc.SplitPartitionKey(pk)
			grp := &kvenc.CountingIter{Inner: vals}
			h.comb.Combine(key, grp, func(v []byte) {
				out = kvenc.AppendPair(out, pk, v)
			})
			records += grp.N
			return true
		}); err != nil {
			panic(fmt.Errorf("task: corrupt hop spill in map task %d: %w", h.chunk, err))
		}
		h.rt.ChargeOps(model.CPUCombine, records)
		bytestore.Put(sorted)
		sorted = out
	}
	parts, emitted, err := kvenc.SplitPartitions(sorted, h.partitions)
	if err != nil {
		panic(fmt.Errorf("task: corrupt hop spill in map task %d: %w", h.chunk, err))
	}
	bytestore.Put(sorted)
	h.emitted += emitted
	h.spills++
	h.publish(fmt.Sprintf("map%06d.push%d", h.chunk, h.spills), h.spills, parts, emitted)
}

// Finish implements Collector: HOP publishes incrementally, so the last
// buffered spill is pushed and no aggregate output remains.
func (h *HOPCollector) Finish() ([][][]byte, int64, int64) {
	h.push()
	bytestore.Put(h.buf)
	h.buf = nil
	return nil, h.mapped, h.emitted
}
