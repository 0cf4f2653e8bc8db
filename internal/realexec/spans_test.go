package realexec_test

import (
	"reflect"
	"sort"
	"strings"
	"testing"

	"repro/internal/engine"
	"repro/internal/queries"
)

// spanKeys is the sorted multiset of a report's span (Name, Kind)
// pairs.
func spanKeys(rep *engine.Report) []string {
	keys := make([]string, 0, len(rep.Spans))
	for _, s := range rep.Spans {
		keys = append(keys, s.Name+"/"+s.Kind)
	}
	sort.Strings(keys)
	return keys
}

// TestSpanNamingAcrossBackends pins the one span-naming rule both
// backends share: on a clean job, the DES and the wall-clock backend
// name every map and reduce attempt alike, so a trace from either
// reads the same. Start and end times differ by design (virtual
// versus measured), and so does the order spans complete in.
func TestSpanNamingAcrossBackends(t *testing.T) {
	for _, pl := range []engine.Platform{engine.SortMerge, engine.HOP, engine.MRHash, engine.INCHash, engine.DINCHash} {
		t.Run(pl.String(), func(t *testing.T) {
			job := goldenJob(t, pl)
			des := spanKeys(runEngine(t, job, queries.NewClickCount))
			wall := spanKeys(runReal(t, job, queries.NewClickCount, 4))
			if !reflect.DeepEqual(des, wall) {
				t.Fatalf("span (Name, Kind) multisets differ:\nDES  %v\nreal %v", des, wall)
			}
			maps, reduces := 0, 0
			for _, k := range des {
				switch {
				case strings.HasSuffix(k, "/map"):
					maps++
				case strings.HasSuffix(k, "/reduce"):
					reduces++
				}
			}
			if maps != job.Input.NumChunks() || reduces != job.Cluster.R*job.Cluster.Nodes {
				t.Fatalf("%d map and %d reduce spans, want %d and %d",
					maps, reduces, job.Input.NumChunks(), job.Cluster.R*job.Cluster.Nodes)
			}
		})
	}
}
