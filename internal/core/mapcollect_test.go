package core

import (
	"bytes"
	"fmt"
	"runtime/debug"
	"testing"
	"time"

	"repro/internal/bytestore"
	"repro/internal/cost"
	"repro/internal/kvenc"
	"repro/internal/storage"
	"repro/internal/substrate"
)

func wallRuntime() *Runtime {
	m := cost.Default(1)
	return NopRuntime(substrate.NewWallProc(time.Now()), storage.NewWallStore(0, m), m)
}

func collectorKeys(n int) [][]byte {
	keys := make([][]byte, n)
	for i := range keys {
		keys[i] = []byte(fmt.Sprintf("u%07d", i*7919%100003))
	}
	return keys
}

// TestHashMapCollectorRawMatchesPerPartitionBuffers pins the raw
// path's output against per-partition append buffers flushed on the
// same budget rule: identical segments, in the same order, through
// several budget overflows.
func TestHashMapCollectorRawMatchesPerPartitionBuffers(t *testing.T) {
	const r, budget = 5, 6 << 10
	rt := wallRuntime()
	c := NewHashMapCollector(rt, nonCombining{}, r, budget, false)
	want := make([][][]byte, r)
	bufs := make([][]byte, r)
	var used int64
	flush := func() {
		for p, b := range bufs {
			if len(b) > 0 {
				want[p] = append(want[p], b)
				bufs[p] = nil
			}
		}
		used = 0
	}
	h1 := rt.Fam.Fn(1)
	for i, k := range collectorKeys(3000) {
		v := bytes.Repeat([]byte{byte('a' + i%26)}, i%40)
		c.Add(k, v)
		need := bytestore.PairBytes(len(k), len(v))
		if used+need > budget && used > 0 {
			flush()
		}
		p := h1.Bucket(k, r)
		bufs[p] = kvenc.AppendPair(bufs[p], k, v)
		used += need
	}
	flush()
	parts, mapped, emitted := c.Finish()
	if mapped != 3000 || emitted != 3000 {
		t.Fatalf("mapped=%d emitted=%d", mapped, emitted)
	}
	for p := range want {
		if len(parts[p]) != len(want[p]) || len(want[p]) < 2 {
			t.Fatalf("partition %d: %d segments, want %d (at least 2)", p, len(parts[p]), len(want[p]))
		}
		for i := range want[p] {
			if !bytes.Equal(parts[p][i], want[p][i]) {
				t.Fatalf("partition %d segment %d differs", p, i)
			}
			if cap(parts[p][i]) != len(parts[p][i]) {
				t.Fatalf("partition %d segment %d: cap %d != len %d", p, i, cap(parts[p][i]), len(parts[p][i]))
			}
		}
	}
}

// TestHashMapCollectorRawAllocsPerTask: on the raw path a map task
// whose output fits B_m allocates a fixed number of times whatever its
// record count — one pooled collect buffer and one exact-size output
// buffer, no per-partition buffers that grow per record.
func TestHashMapCollectorRawAllocsPerTask(t *testing.T) {
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
			c := NewHashMapCollector(rt, nonCombining{}, 40, 1<<20, false)
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

// BenchmarkMapCollector runs one map task's raw hash collect and
// partition: 2,000 click-sized pairs over 40 partitions in a buffer
// they fit.
func BenchmarkMapCollector(b *testing.B) {
	rt := wallRuntime()
	keys := collectorKeys(2000)
	val := []byte("0001234567\tu0001234\t/p001234.html\t200\t1234\tMozilla/4.0-compatible")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c := NewHashMapCollector(rt, nonCombining{}, 40, 280<<10, false)
		for _, k := range keys {
			c.Add(k, val)
		}
		c.Finish()
	}
}
