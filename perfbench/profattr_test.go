package main

import (
	"bytes"
	"compress/gzip"
	"encoding/json"
	"os"
	"runtime/pprof"
	"testing"
	"time"
)

func stack(fns ...string) []frame {
	s := make([]frame, len(fns))
	for i, fn := range fns {
		s[i] = frame{fn: fn}
	}
	return s
}

func TestAttributeCannedStacks(t *testing.T) {
	for _, c := range []struct {
		name  string
		stack []frame
		want  string
	}{
		{"memmove under AppendPair is codec work",
			stack("runtime.memmove", "repro/internal/kvenc.AppendPair", "repro/internal/sortmerge.(*MapCollector).Add", "repro/internal/realexec.(*runner).mapTask"),
			"cpu.kvenc.codec"},
		{"sort kernel",
			[]frame{{"runtime.memmove", "memmove_amd64.s"}, {"repro/internal/kvenc.pdqsort", "/x/internal/kvenc/sort.go"}, {"repro/internal/sortmerge.(*MapCollector).Finish", "sortmerge.go"}},
			"cpu.kvenc.sort"},
		{"loser-tree merge",
			[]frame{{"repro/internal/kvenc.(*Merger).Next", "/x/internal/kvenc/losertree.go"}},
			"cpu.kvenc.merge"},
		{"stream merge in kvenc.go",
			[]frame{{"repro/internal/kvenc.MergeStreamTo", "/x/internal/kvenc/kvenc.go"}},
			"cpu.kvenc.merge"},
		{"helper under the map function",
			stack("repro/internal/queries.clickTs", "repro/internal/queries.(*Sessionization).Map", "repro/internal/realexec.(*runner).mapTask"),
			"cpu.queries.map"},
		{"finalize is reduce-side",
			stack("runtime.mallocgc", "repro/internal/queries.(*Sessionization).Finalize.func1", "repro/internal/core.(*INCHash).finish"),
			"cpu.queries.reduce"},
		{"hash table",
			stack("repro/internal/hashfam.Sum64", "repro/internal/bytestore.(*Table).Get", "repro/internal/core.(*INCHash).Add"),
			"cpu.hashfam"},
		{"generic instantiation",
			stack("repro/internal/bytestore.grow[go.shape.uint8]", "repro/internal/core.run"),
			"cpu.bytestore"},
		{"GC worker",
			stack("runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker"),
			"cpu.runtime.gc"},
		{"JSON of a run record",
			stack("runtime.memmove", "encoding/json.(*encodeState).string", "encoding/json.Marshal", "repro/internal/sched.putRun"),
			"cpu.encoding_json"},
		{"HTTP server read",
			stack("syscall.Syscall", "net.(*conn).Read", "net/http.(*connReader).Read", "net/http.(*conn).serve"),
			"cpu.net_http"},
		{"server handler wins over net/http",
			stack("syscall.Syscall", "os.(*File).Sync", "repro/internal/ingest.(*wal).append", "repro/internal/ingest.(*Ingester).Ingest", "repro/internal/serve.handleEvents", "net/http.HandlerFunc.ServeHTTP", "net/http.(*conn).serve"),
			"cpu.ingest"},
		{"benchmark's own HTTP client",
			stack("syscall.Syscall", "net.(*conn).Write", "net/http.(*persistConn).writeLoop"),
			"cpu.bench"},
		{"benchmark code calling the platform",
			stack("repro/internal/realexec.Run", "repro.RunReal", "repro/perfbench.runBatch"),
			"cpu.realexec"},
		{"runtime only",
			stack("runtime.futex", "runtime.notesleep", "runtime.mPark"),
			"cpu.other"},
	} {
		if got := attribute(c.stack); got != c.want {
			t.Errorf("%s: attributed to %s, want %s", c.name, got, c.want)
		}
		if _, ok := layerMetricUnits[c.want]; !ok {
			t.Errorf("%s: %s is not a declared per-layer metric", c.name, c.want)
		}
	}
}

// pbEncoder writes the protobuf subset decodeProfile reads.
type pbEncoder struct{ b []byte }

func (e *pbEncoder) varint(v uint64) {
	for v >= 0x80 {
		e.b = append(e.b, byte(v)|0x80)
		v >>= 7
	}
	e.b = append(e.b, byte(v))
}

func (e *pbEncoder) uint(num int, v uint64) { e.varint(uint64(num)<<3 | 0); e.varint(v) }

func (e *pbEncoder) bytes(num int, p []byte) {
	e.varint(uint64(num)<<3 | 2)
	e.varint(uint64(len(p)))
	e.b = append(e.b, p...)
}

func (e *pbEncoder) msg(num int, fn func(*pbEncoder)) {
	var m pbEncoder
	fn(&m)
	e.bytes(num, m.b)
}

func TestDecodeCannedProfile(t *testing.T) {
	strs := []string{"", "samples", "count", "cpu", "nanoseconds", "runtime.memmove", "repro/internal/kvenc.AppendPair", "kvenc.go", "repro/internal/hashfam.Sum64"}
	var e pbEncoder
	e.msg(1, func(m *pbEncoder) { m.uint(1, 1); m.uint(2, 2) }) // samples/count
	e.msg(1, func(m *pbEncoder) { m.uint(1, 3); m.uint(2, 4) }) // cpu/nanoseconds
	// Sample 1: leaf location 1 (memmove inlined into AppendPair), 30ms.
	e.msg(2, func(m *pbEncoder) {
		m.bytes(1, []byte{1})                              // packed location ids
		m.bytes(2, (&pbEncoder{}).packed(3, 30_000_000).b) // packed values
	})
	// Sample 2: location 2 (hashfam), 10ms, unpacked fields.
	e.msg(2, func(m *pbEncoder) { m.uint(1, 2); m.uint(2, 1); m.uint(2, 10_000_000) })
	e.msg(4, func(m *pbEncoder) {
		m.uint(1, 1)
		m.msg(4, func(l *pbEncoder) { l.uint(1, 10) }) // innermost: memmove
		m.msg(4, func(l *pbEncoder) { l.uint(1, 11) }) // its caller
	})
	e.msg(4, func(m *pbEncoder) { m.uint(1, 2); m.msg(4, func(l *pbEncoder) { l.uint(1, 12) }) })
	e.msg(5, func(m *pbEncoder) { m.uint(1, 10); m.uint(2, 5) })
	e.msg(5, func(m *pbEncoder) { m.uint(1, 11); m.uint(2, 6); m.uint(4, 7) })
	e.msg(5, func(m *pbEncoder) { m.uint(1, 12); m.uint(2, 8) })
	for _, s := range strs {
		e.bytes(6, []byte(s))
	}
	var gz bytes.Buffer
	zw := gzip.NewWriter(&gz)
	zw.Write(e.b)
	zw.Close()

	shares, n, err := attributeProfile(gz.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if n != 2 || shares["cpu.kvenc.codec"] != 0.75 || shares["cpu.hashfam"] != 0.25 {
		t.Errorf("got %d samples, shares %v; want 2 samples, codec 0.75, hashfam 0.25", n, shares)
	}
}

func (e *pbEncoder) packed(vs ...uint64) *pbEncoder {
	for _, v := range vs {
		e.varint(v)
	}
	return e
}

func TestDecodeLiveProfile(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skip("cpu profiler busy:", err)
	}
	deadline := time.Now().Add(300 * time.Millisecond)
	x := 0
	for time.Now().Before(deadline) {
		x += len(outputHash([][2]string{{"k", "v"}}, false))
	}
	pprof.StopCPUProfile()
	shares, n, err := attributeProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	sum := 0.0
	for _, v := range shares {
		sum += v
	}
	if n > 0 && (sum < 0.999 || sum > 1.001) {
		t.Errorf("%d samples, shares sum to %g: %v", n, sum, shares)
	}
	if n > 0 && shares["cpu.bench"] == 0 {
		t.Errorf("benchmark busy loop not credited to cpu.bench: %v (x=%d)", shares, x)
	}
}

// TestBenchmarkJSONDeclaresWhatRunsReport keeps BENCHMARK.json and the
// metric sets the command prints in step.
func TestBenchmarkJSONDeclaresWhatRunsReport(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name string } `json:"workloads"`
		EndToEnd  []struct {
			Name, Unit string
		} `json:"end_to_end"`
		PerLayer []struct {
			Name, Unit string
		} `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	known := map[string]bool{}
	for _, w := range workloads {
		known[w.name] = true
	}
	for _, w := range b.Workloads {
		if !known[w.Name] {
			t.Errorf("BENCHMARK.json names workload %s, which the command does not run", w.Name)
		}
	}
	if len(b.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json has %d end-to-end metrics, the command %d", len(b.EndToEnd), len(endToEnd))
	}
	for i, m := range b.EndToEnd {
		if m.Name != endToEnd[i].name || m.Unit != endToEnd[i].unit {
			t.Errorf("end_to_end %d: %s %s vs %s %s", i, m.Name, m.Unit, endToEnd[i].name, endToEnd[i].unit)
		}
	}
	if len(b.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json has %d per-layer metrics, the command %d", len(b.PerLayer), len(perLayer))
	}
	for i, m := range b.PerLayer {
		if m.Name != perLayer[i].name || m.Unit != perLayer[i].unit {
			t.Errorf("per_layer %d: %s %s vs %s %s", i, m.Name, m.Unit, perLayer[i].name, perLayer[i].unit)
		}
	}
}
