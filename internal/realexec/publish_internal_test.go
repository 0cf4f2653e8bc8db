package realexec

import (
	"testing"
	"time"

	"repro/internal/cost"
	"repro/internal/dfs"
	"repro/internal/engine"
	"repro/internal/hashfam"
	"repro/internal/mr"
	"repro/internal/queries"
	"repro/internal/storage"
	"repro/internal/workload"
)

// TestMapStoresRetainNoOutput: the real backend's map output write is
// charge-only. After a map phase on every platform — with map buffers
// small enough that sort-merge spills and the hash collector flushes
// more than once — each map attempt's store holds no bytes, while the
// U3 write is still charged.
func TestMapStoresRetainNoOutput(t *testing.T) {
	m := cost.Default(1.0 / 4096)
	cl := engine.PaperCluster(m)
	cl.Nodes, cl.R = 3, 2
	cl.MapBuffer = 4 << 10
	cl.Checksums = true
	spec := workload.DefaultClickSpec(96<<10, 12<<10, 77)
	spec.Users, spec.URLs = 400, 100
	in := workload.NewClickStream(spec)
	sessionization := func() mr.Query { return queries.NewSessionization(5*time.Minute, 64, time.Second) }
	for _, tc := range []struct {
		pl   engine.Platform
		newQ func() mr.Query
	}{
		{engine.SortMerge, sessionization},
		{engine.HOP, queries.NewClickCount},
		{engine.MRHash, queries.NewClickCount},
		{engine.INCHash, sessionization},
		{engine.DINCHash, queries.NewClickCount},
	} {
		t.Run(tc.pl.String(), func(t *testing.T) {
			job := engine.JobSpec{Input: in, Platform: tc.pl, Cluster: cl, Hints: mr.Hints{Km: 1, DistinctKeys: 400}, Seed: 1}
			job.Query = tc.newQ()
			if err := job.Validate(); err != nil {
				t.Fatal(err)
			}
			r := &run{
				spec: &job, newQ: tc.newQ, model: m, fam: hashfam.NewFamily(1), start: time.Now(),
				numReducers: cl.R * cl.Nodes, totalMaps: in.NumChunks(),
			}
			r.flt = newFaults(&job, r.totalMaps)
			assign := dfs.NewAssignment(in, dfs.NewPlacement(cl.Nodes, cl.Replication))
			var u3, spilled int64
			for chunk := 0; chunk < r.totalMaps; chunk++ {
				ch := r.runMapChain(chunk, assign.Node(chunk))
				if ch.err != nil {
					t.Fatal(ch.err)
				}
				st := ch.winner.store
				if live := st.LiveBytes(); live != 0 {
					t.Fatalf("map task %d's store holds %d bytes after the task", chunk, live)
				}
				u3 += st.Counters().WrittenBytes[storage.MapOutput]
				spilled += st.Counters().WrittenBytes[storage.MapSpill]
				if st.Counters().OverheadBytes[storage.MapOutput] == 0 {
					t.Fatalf("map task %d: no checksum frame charged for its output", chunk)
				}
			}
			if u3 == 0 {
				t.Fatal("no map output write charged")
			}
			if tc.pl == engine.SortMerge && spilled == 0 {
				t.Fatal("sort-merge never spilled: the buffer does not exercise the merge tree")
			}
		})
	}
}
