package core

import (
	"fmt"

	"repro/internal/bytestore"
	"repro/internal/hashfam"
	"repro/internal/kvenc"
	"repro/internal/mr"
)

// HashMapCollector is the sort-free map output component (§5
// "Hash-based Map Output"). It partitions pairs with h1 and, when the
// query admits it, applies the combine/initialize function through an
// in-memory hash table, so the CPU cost of map-side sorting is
// eliminated entirely.
//
// Memory behaviour mirrors the prototype: everything lives in a
// byte-array table/buffer with budget B_m. If a chunk's output exceeds
// the budget (C·Km > B_m), the collector emits the current content as
// a finished segment and continues — hash map output never needs the
// external sort-and-merge that the sort-merge collector pays for.
// Without a table, pairs collect partition-tagged in arrival order in
// one pooled buffer; a flush scatters them into one exact-size buffer
// of per-partition segments (kvenc.SplitPartitions).
type HashMapCollector struct {
	rt       *Runtime
	r        int // number of partitions (reducers)
	h1       hashfam.Func
	budget   int64
	comb     mr.Combiner
	inc      mr.Incremental
	initOnly mr.Incremental // init() applied per record, no map-side table
	mapped   int64          // records collected
	outRecs  int64          // records emitted to partitions (post-combine)

	// combining path
	table *bytestore.Table

	// raw path: partition-tagged pairs in arrival order, in a pooled
	// buffer returned by Finish; rawBytes is their untagged encoded
	// size, which the budget is charged with
	raw      []byte
	rawBytes int64

	pk []byte // compound-key scratch, reused across Add calls

	parts [][][]byte // finished segments per partition
}

// NewHashMapCollector creates a collector for r partitions with map
// buffer budget (physical bytes).
//
// Mode selection follows the paper's §5 rule — "whenever a combine
// function is used, our Hash-based Map Output component builds an
// in-memory hash table": on the incremental platforms, a query with a
// combine function gets map-side state merging; an incremental query
// without one (sessionization: every record must survive, so merging
// compacts nothing) has init() applied per record with the states
// passed straight through, grouped only by partition. On MR-hash, a
// combine function gets the per-key value table; otherwise records
// pass through grouped by partition.
func NewHashMapCollector(rt *Runtime, q mr.Query, r int, budget int64, incremental bool) *HashMapCollector {
	c := &HashMapCollector{
		rt:     rt,
		r:      r,
		h1:     rt.Fam.Fn(1),
		budget: budget,
		parts:  make([][][]byte, r),
	}
	inc, isInc := q.(mr.Incremental)
	comb, isComb := q.(mr.Combiner)
	switch {
	case incremental && isInc && isComb:
		c.inc = inc
	case incremental && isInc:
		c.initOnly = inc
	case isComb:
		c.comb = comb
	}
	if c.Combining() {
		c.table = bytestore.NewTable(rt.Fam.Fn(2), budget)
	} else {
		c.raw = bytestore.GetCollect(budget)
	}
	return c
}

// Combining reports whether the collector folds records map-side
// through a hash table (the engine uses it to pick the CPU cost per
// record); init-only pass-through does not count.
func (c *HashMapCollector) Combining() bool { return c.inc != nil || c.comb != nil }

// Add collects one map-output pair.
func (c *HashMapCollector) Add(key, val []byte) {
	c.mapped++
	part := c.h1.Bucket(key, c.r)
	switch {
	case c.initOnly != nil:
		c.addRaw(part, key, c.initOnly.Init(key, val))
	case c.inc != nil:
		// The compound key is built in reused scratch: the table copies
		// keys into its arena on insert and reads them transiently on
		// lookup.
		c.pk = kvenc.AppendPartitionKey(c.pk[:0], part, key)
		pk := c.pk
		st := c.inc.Init(key, val)
		cur, found, ok := c.table.UpsertState(pk, len(st), c.inc.StateSize())
		if !ok {
			c.flushTable()
			cur, found, _ = c.table.UpsertState(pk, len(st), c.inc.StateSize())
		}
		if !found {
			copy(cur, st)
			return
		}
		merged := c.inc.MergeStates(key, cur, st)
		if !c.table.SetState(pk, merged) {
			// Arena exhausted by state growth. The flushed segment
			// already carries the key's previous partial state, so the
			// fresh slot must hold only the incoming increment —
			// otherwise the old clicks would be emitted twice.
			c.flushTable()
			st2, _, _ := c.table.UpsertState(pk, len(st), c.inc.StateSize())
			copy(st2, st)
		}
	case c.comb != nil:
		c.pk = kvenc.AppendPartitionKey(c.pk[:0], part, key)
		if !c.table.AppendValue(c.pk, val) {
			c.flushTable()
			c.table.AppendValue(c.pk, val)
		}
	default:
		c.addRaw(part, key, val)
	}
}

// addRaw collects one pair on the raw path, flushing first when it
// would overflow the budget.
func (c *HashMapCollector) addRaw(part int, key, val []byte) {
	need := bytestore.PairBytes(len(key), len(val))
	if c.rawBytes+need > c.budget && c.rawBytes > 0 {
		c.flushRaw()
	}
	c.raw = kvenc.AppendPartitionPair(c.raw, part, key, val)
	c.rawBytes += need
}

// flushTable emits the table contents as one finished segment per
// partition and resets the table. The table walk is serial (it owns
// the iteration cursor), but the per-partition combine + encode work
// runs on the kernel's compute pool: partitions are disjoint, entries
// keep table iteration order within each partition, and the table is
// only read until reset — so the emitted segments are bytewise
// identical to a serial flush for any worker count.
func (c *HashMapCollector) flushTable() {
	type entry struct {
		key    []byte
		state  []byte
		values func(func([]byte))
	}
	perPart := make([][]entry, c.r)
	c.table.Range(func(pk, state []byte, values func(func([]byte))) bool {
		part, key := kvenc.SplitPartitionKey(pk)
		perPart[part] = append(perPart[part], entry{key: key, state: state, values: values})
		return true
	})
	segs := make([][]byte, c.r)
	counts := make([]int64, c.r)
	encode := func(part int) {
		var seg []byte
		var n int64
		for _, e := range perPart[part] {
			if c.inc != nil {
				seg = kvenc.AppendPair(seg, e.key, e.state)
				n++
				continue
			}
			// Combine the collected values into (usually) one.
			var vals [][]byte
			e.values(func(v []byte) { vals = append(vals, v) })
			c.comb.Combine(e.key, &sliceIter{vals: vals}, func(v []byte) {
				seg = kvenc.AppendPair(seg, e.key, v)
				n++
			})
		}
		segs[part], counts[part] = seg, n
	}
	if c.rt.P != nil {
		c.rt.P.ParallelFor(c.r, encode)
	} else {
		for part := 0; part < c.r; part++ {
			encode(part)
		}
	}
	for _, n := range counts {
		c.outRecs += n
	}
	c.appendSegments(segs)
	c.table = bytestore.NewTable(c.rt.Fam.Fn(2), c.budget)
}

// flushRaw scatters the raw buffer into per-partition segments, each
// keeping arrival order, and empties the buffer.
func (c *HashMapCollector) flushRaw() {
	if len(c.raw) == 0 {
		return
	}
	parts, n, err := kvenc.SplitPartitions(c.raw, c.r)
	if err != nil {
		panic(fmt.Errorf("core: corrupt map collect buffer: %w", err))
	}
	for part, segs := range parts {
		if c.parts[part] == nil {
			c.parts[part] = segs // the first flush's list is kept, not copied
		} else {
			c.parts[part] = append(c.parts[part], segs...)
		}
	}
	c.outRecs += n
	c.raw = c.raw[:0]
	c.rawBytes = 0
}

// appendSegments stores finished segments. When a chunk's output
// exceeds the map buffer the collector simply emits multiple segments
// per partition — no external sort, no merge, no extra spill: this is
// exactly the U2 cost the hash framework eliminates (§4.1). All
// segments are written once to the map output file by the engine.
func (c *HashMapCollector) appendSegments(segs [][]byte) {
	for part, s := range segs {
		if len(s) > 0 {
			c.parts[part] = append(c.parts[part], s)
		}
	}
}

// Finish flushes remaining state and returns the per-partition
// segments plus the record counts (collected, emitted).
func (c *HashMapCollector) Finish() (parts [][][]byte, mapped, emitted int64) {
	if c.Combining() {
		c.flushTable()
	} else {
		c.flushRaw()
		bytestore.Put(c.raw)
		c.raw = nil
	}
	return c.parts, c.mapped, c.outRecs
}

// sliceIter adapts [][]byte to kvenc.ValueIter.
type sliceIter struct {
	vals [][]byte
	i    int
}

// Next implements kvenc.ValueIter.
func (s *sliceIter) Next() ([]byte, bool) {
	if s.i >= len(s.vals) {
		return nil, false
	}
	v := s.vals[s.i]
	s.i++
	return v, true
}
