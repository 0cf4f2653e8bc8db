package sortmerge

import (
	"fmt"
	"runtime/debug"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/cost"
	"repro/internal/storage"
	"repro/internal/substrate"
)

func wallRuntime() *core.Runtime {
	m := cost.Default(1)
	return core.NopRuntime(substrate.NewWallProc(time.Now()), storage.NewWallStore(0, m), m)
}

func collectorKeys(n int) [][]byte {
	keys := make([][]byte, n)
	for i := range keys {
		keys[i] = []byte(fmt.Sprintf("u%07d", i*7919%100003))
	}
	return keys
}

// TestMapCollectorAllocsPerTask: a map task whose output fits B_m
// allocates a fixed number of times whatever its record count — the
// collect buffer comes from the pool and the partitioned output is one
// exact-size buffer, so nothing grows per record or per partition.
func TestMapCollectorAllocsPerTask(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts include race-detector instrumentation")
	}
	// A GC clears the sort's sync.Pool scratch, and the larger task
	// makes one likelier; count allocations with the collector off.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	rt := wallRuntime()
	keys := collectorKeys(8000)
	val := []byte("0001234567\tu0001234\t/p001234.html")
	task := func(n int) float64 {
		return testing.AllocsPerRun(5, func() {
			c := NewMapCollector(rt, rawOnly{}, MapCollectorConfig{
				Prefix: "m", Partitions: 40, Buffer: 1 << 20, MergeFactor: 10,
			})
			for _, k := range keys[:n] {
				c.Add(k, val)
			}
			if _, _, emitted := c.Finish(); emitted != int64(n) {
				t.Fatalf("emitted %d of %d", emitted, n)
			}
		})
	}
	if small, large := task(500), task(8000); small != large {
		t.Fatalf("a 500-record map task allocated %.0f times, an 8000-record one %.0f: allocations grow with records", small, large)
	}
}

// TestMapCollectorSegmentsDoNotAlias: the partition segments share one
// buffer, so each must be capped — PrepareFinal appends shuffle
// segments into its run list and an uncapped segment would let an
// append overwrite the next partition.
func TestMapCollectorSegmentsDoNotAlias(t *testing.T) {
	c := NewMapCollector(wallRuntime(), rawOnly{}, MapCollectorConfig{
		Prefix: "m", Partitions: 4, Buffer: 1 << 20, MergeFactor: 10,
	})
	for _, k := range collectorKeys(400) {
		c.Add(k, []byte("v"))
	}
	parts, _, _ := c.Finish()
	var before []string
	for p, segs := range parts {
		if len(segs) != 1 || cap(segs[0]) != len(segs[0]) {
			t.Fatalf("partition %d: %d segments, want one with cap == len", p, len(segs))
		}
		before = append(before, string(segs[0]))
	}
	for p := range parts {
		_ = append(parts[p][0], "OVERWRITE"...)
		for q := range parts {
			if string(parts[q][0]) != before[q] {
				t.Fatalf("appending to partition %d changed partition %d", p, q)
			}
		}
	}
}

// BenchmarkMapCollector runs one map task's collect, sort and
// partition: 2,000 click-sized pairs over 40 partitions in a buffer
// they fit.
func BenchmarkMapCollector(b *testing.B) {
	rt := wallRuntime()
	keys := collectorKeys(2000)
	val := []byte("0001234567\tu0001234\t/p001234.html\t200\t1234\tMozilla/4.0-compatible")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c := NewMapCollector(rt, rawOnly{}, MapCollectorConfig{
			Prefix: "m", Partitions: 40, Buffer: 280 << 10, MergeFactor: 10,
		})
		for _, k := range keys {
			c.Add(k, val)
		}
		c.Finish()
	}
}
