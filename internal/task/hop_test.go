package task

import (
	"fmt"
	"runtime/debug"
	"testing"

	"repro/internal/kvenc"
	"repro/internal/mr"
)

// rawQuery is a query with no combine function.
type rawQuery struct{}

func (rawQuery) Name() string                                    { return "raw" }
func (rawQuery) Map(record []byte, emit func(k, v []byte))       { emit(record, nil) }
func (rawQuery) Reduce([]byte, kvenc.ValueIter, mr.OutputWriter) {}

// TestHOPCollectorAllocsPerTask: a HOP map task whose output fits one
// push allocates a fixed number of times whatever its record count —
// the collect buffer is pooled and each push's partitioned output is
// one exact-size buffer.
func TestHOPCollectorAllocsPerTask(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts include race-detector instrumentation")
	}
	// A GC clears the sort's sync.Pool scratch, and the larger task
	// makes one likelier; count allocations with the collector off.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	rt, _ := testRuntime()
	keys := make([][]byte, 8000)
	for i := range keys {
		keys[i] = []byte(fmt.Sprintf("u%07d", i*7919%100003))
	}
	val := []byte("0001234567\tu0001234\t/p001234.html")
	var pushed int64
	publish := func(_ string, _ int, _ [][][]byte, records int64) { pushed += records }
	task := func(n int) float64 {
		return testing.AllocsPerRun(5, func() {
			pushed = 0
			h := NewHOPCollector(rt, rawQuery{}, 40, 1<<20, 3, publish)
			for _, k := range keys[:n] {
				h.Add(k, val)
			}
			h.Finish()
			if pushed != int64(n) {
				t.Fatalf("pushed %d of %d", pushed, n)
			}
		})
	}
	if small, large := task(500), task(8000); small != large {
		t.Fatalf("a 500-record HOP task allocated %.0f times, an 8000-record one %.0f: allocations grow with records", small, large)
	}
}
