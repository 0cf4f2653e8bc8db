package task

import (
	"bytes"
	"fmt"
	"reflect"
	"sort"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/cost"
	"repro/internal/mr"
	"repro/internal/queries"
	"repro/internal/sortmerge"
	"repro/internal/storage"
	"repro/internal/substrate"
	"repro/internal/workload"
)

func testRuntime() (*core.Runtime, *storage.Store) {
	m := cost.Default(1.0 / 4096)
	st := storage.NewWallStore(0, m)
	return core.NopRuntime(substrate.NewWallProc(time.Now()), st, m), st
}

// clickLines is a small deterministic click log.
func clickLines(t *testing.T) []byte {
	t.Helper()
	spec := workload.DefaultClickSpec(48<<10, 48<<10, 5)
	spec.Users = 300
	cs := workload.NewClickStream(spec)
	var data []byte
	for i := 0; i < cs.NumChunks(); i++ {
		data = append(data, cs.ChunkBytes(i)...)
	}
	return data
}

// mapOutput runs the click log through the map-side collector the
// given reducer kind consumes, as a single-partition map task would.
func mapOutput(t *testing.T, kind Kind, q mr.Query, data []byte) [][]byte {
	t.Helper()
	rt, _ := testRuntime()
	var coll Collector
	switch kind {
	case SortMerge:
		coll = sortmerge.NewMapCollector(rt, q, sortmerge.MapCollectorConfig{
			Prefix: "m", Partitions: 1, Buffer: 8 << 10, MergeFactor: 4, ReadSegment: 4 << 10})
	default:
		coll = core.NewHashMapCollector(rt, q, 1, 8<<10, kind == INCHash || kind == DINCHash)
	}
	for _, line := range bytes.Split(data, []byte("\n")) {
		if len(line) > 0 {
			q.Map(line, coll.Add)
		}
	}
	parts, _, _ := coll.Finish()
	return parts[0]
}

func testConfig(kind Kind) ReducerConfig {
	return ReducerConfig{Kind: kind, Prefix: "r000", Buffer: 16 << 10, Page: 1 << 10,
		ReadSegment: 4 << 10, MergeFactor: 4, ExpectedBytes: 64 << 10,
		ExpectedStateBytes: 16 << 10, ExpectedDistinctKeys: 300}
}

func segBytes(segs [][]byte) (n int64) {
	for _, s := range segs {
		n += int64(len(s))
	}
	return n
}

// TestReducerKindsAgree feeds one map task's output through each
// platform reducer the bundle builds and requires the same answers.
func TestReducerKindsAgree(t *testing.T) {
	data := clickLines(t)
	var want []string
	for _, kind := range []Kind{SortMerge, MRHash, INCHash, DINCHash} {
		segs := mapOutput(t, kind, queries.NewClickCount(), data)
		rt, _ := testRuntime()
		var totals Totals
		out := NewOutput(&totals, func(int64) {}, 1<<10, true, false)
		red := NewReducer(rt, queries.NewClickCount(), testConfig(kind), out)
		red.Feed(segs, segBytes(segs), 0)
		red.Merge()
		red.PrepareFinal()
		red.Finish(out)
		out.Flush()
		var got []string
		for _, row := range totals.Rows {
			got = append(got, row[0]+"="+row[1])
		}
		sort.Strings(got)
		if len(got) == 0 || int64(len(got)) != totals.Records {
			t.Fatalf("kind %d: %d rows for %d records", kind, len(got), totals.Records)
		}
		if want == nil {
			want = got
		} else if !reflect.DeepEqual(got, want) {
			t.Fatalf("kind %d answers differ from sort-merge's", kind)
		}
	}
}

// TestOutputDirect checks a direct writer commits at Emit and sinks
// in flushAt-sized batches.
func TestOutputDirect(t *testing.T) {
	var totals Totals
	var sunk []int64
	out := NewOutput(&totals, func(b int64) { sunk = append(sunk, b) }, 10, false, false)
	out.Emit([]byte("ab"), []byte("cd")) // 6 bytes
	if totals.Records != 1 || totals.Bytes != 6 || len(sunk) != 0 {
		t.Fatalf("after one Emit: totals %+v, sunk %v", totals, sunk)
	}
	out.Emit([]byte("ef"), []byte("gh")) // 12 ≥ 10: flush
	out.Emit([]byte("i"), nil)
	out.Commit() // no-op on a direct writer
	out.Flush()
	if totals.Records != 3 || totals.Bytes != 15 || !reflect.DeepEqual(sunk, []int64{12, 3}) {
		t.Fatalf("totals %+v, sunk %v; want 3 records, 15 bytes, sinks [12 3]", totals, sunk)
	}
}

// TestProvisionalCheckpointChain walks the provisional contract
// through a checkpoint: output stays invisible until Commit, a
// checkpoint stages (and sinks) the prefix, a failed attempt's later
// output vanishes, and a restore replays from the staged prefix so
// every record commits exactly once and no byte sinks twice.
func TestProvisionalCheckpointChain(t *testing.T) {
	// Frequent users emit during Feed, as soon as a user crosses the
	// threshold, so the checkpoint has output to stage.
	q := queries.NewFrequentUsers(3)
	segs := mapOutput(t, INCHash, q, clickLines(t))
	half := len(segs) / 2
	if half == 0 {
		t.Fatalf("need ≥2 map segments, got %d", len(segs))
	}

	// Reference: one clean direct attempt.
	rt, _ := testRuntime()
	var clean Totals
	out := NewOutput(&clean, func(int64) {}, 1<<10, true, false)
	red := NewReducer(rt, q, testConfig(INCHash), out)
	red.Feed(segs, segBytes(segs), 0)
	red.Finish(out)

	// Attempt 0: feed half, checkpoint, emit a marker, fail.
	var totals Totals
	var sunk int64
	sink := func(b int64) { sunk += b }
	rt, st := testRuntime()
	out = NewOutput(&totals, sink, 1<<10, true, true)
	red = NewReducer(rt, q, testConfig(INCHash), out)
	red.Feed(segs[:half], segBytes(segs[:half]), 0)
	consumed := []bool{true, false}
	ck := TakeCheckpoint(rt.P, st, red, consumed, 1, 2, nil, out)
	if w := st.Counters().WrittenBytes[storage.Checkpoint]; w != ck.StateBytes+ck.BucketSum {
		t.Fatalf("first checkpoint wrote %d, want state %d + buckets %d", w, ck.StateBytes, ck.BucketSum)
	}
	consumed[1] = true // the image kept its own copy
	if !reflect.DeepEqual(ck.Consumed, []bool{true, false}) || ck.ConsumedN != 1 {
		t.Fatalf("checkpoint consumed-set %v/%d aliases the live one", ck.Consumed, ck.ConsumedN)
	}
	stagedBytes := sunk
	if stagedBytes == 0 {
		t.Fatal("the checkpoint staged no output")
	}
	out.Emit([]byte("lost"), []byte("x"))
	out.Discard()
	if totals.Records != 0 {
		t.Fatalf("provisional output leaked %d records before commit", totals.Records)
	}

	// Attempt 1: restore, replay the suffix, commit.
	img, err := core.DecodeFramedImage(ck.Framed)
	if err != nil {
		t.Fatal(err)
	}
	rt, st = testRuntime()
	out = NewOutput(&totals, sink, 1<<10, true, true)
	red = NewReducer(rt, q, testConfig(INCHash), out)
	ck.Restore(rt.P, st, img, red, out)
	if r := st.Counters().ReadBytes[storage.Checkpoint]; r != ck.StateBytes+ck.BucketSum {
		t.Fatalf("restore read %d, want %d", r, ck.StateBytes+ck.BucketSum)
	}
	red.Feed(segs[half:], segBytes(segs[half:]), 0)
	red.Finish(out)
	out.Commit()
	out.Flush()

	if totals.Records != clean.Records || totals.Bytes != clean.Bytes {
		t.Fatalf("restored run committed %d records/%d bytes, clean %d/%d",
			totals.Records, totals.Bytes, clean.Records, clean.Bytes)
	}
	if sunk != totals.Bytes || stagedBytes > sunk {
		t.Fatalf("sunk %d bytes (%d at the checkpoint), committed %d", sunk, stagedBytes, totals.Bytes)
	}
	a := append([][2]string(nil), clean.Rows...)
	b := append([][2]string(nil), totals.Rows...)
	less := func(r [][2]string) func(i, j int) bool {
		return func(i, j int) bool { return r[i][0] < r[j][0] }
	}
	sort.Slice(a, less(a))
	sort.Slice(b, less(b))
	if !reflect.DeepEqual(a, b) {
		t.Fatal("restored run's rows differ from the clean run's")
	}
}

// TestCheckpointDeltaWrites checks a later image charges its full
// state but only the bucket bytes appended since the previous one.
func TestCheckpointDeltaWrites(t *testing.T) {
	prev := &Checkpoint{BucketLens: []int64{100, 50}}
	rt, st := testRuntime()
	var totals Totals
	out := NewOutput(&totals, func(int64) {}, 1<<10, false, false)
	red := NewReducer(rt, queries.NewClickCount(), testConfig(INCHash), out)
	ck := TakeCheckpoint(rt.P, st, red, []bool{false, false, false}, 0, 3, prev, out)
	var want int64 = ck.StateBytes
	for i, l := range ck.BucketLens {
		var pl int64
		if i < len(prev.BucketLens) {
			pl = prev.BucketLens[i]
		}
		if l > pl {
			want += l - pl
		}
	}
	if got := st.Counters().WrittenBytes[storage.Checkpoint]; got != want {
		t.Fatalf("checkpoint wrote %d, want %d", got, want)
	}
	if ck.StateBytes < 3 {
		t.Fatalf("state bytes %d omit the 3-entry consumed-set", ck.StateBytes)
	}
}

// TestHOPCollectorPushes checks the pipelining collector publishes a
// named, partition-sorted push per filled buffer, and that the pushes
// carry every emitted pair.
func TestHOPCollectorPushes(t *testing.T) {
	rt, _ := testRuntime()
	q := queries.NewClickCount()
	var names []string
	var pushed int64
	h := NewHOPCollector(rt, q, 3, 4<<10, 7, func(name string, spill int, parts [][][]byte, records int64) {
		if want := fmt.Sprintf("map000007.push%d", spill); name != want {
			t.Errorf("push named %q, want %q", name, want)
		}
		if len(parts) != 3 {
			t.Errorf("push has %d partitions, want 3", len(parts))
		}
		names = append(names, name)
		pushed += records
	})
	for _, line := range bytes.Split(clickLines(t), []byte("\n")) {
		if len(line) > 0 {
			q.Map(line, h.Add)
		}
	}
	parts, mapped, emitted := h.Finish()
	if parts != nil || mapped == 0 || emitted == 0 {
		t.Fatalf("Finish = %v, %d, %d; want no aggregate output", parts, mapped, emitted)
	}
	if len(names) < 2 || pushed != emitted {
		t.Fatalf("%d pushes carrying %d pairs, want ≥2 carrying %d", len(names), pushed, emitted)
	}
}

func TestSpanNames(t *testing.T) {
	for _, tc := range [][2]string{
		{MapSpan("map000012", 0), "map000012#0"},
		{MapSpan("map000012.b1", 2), "map000012.b1#2"},
		{ReduceSpan(7, 0), "reduce007"},
		{ReduceSpan(7, 3), "reduce007.a3"},
	} {
		if tc[0] != tc[1] {
			t.Errorf("span name %q, want %q", tc[0], tc[1])
		}
	}
}
