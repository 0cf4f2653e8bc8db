package onepass_test

import (
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"

	"repro"
)

// sortedRows returns a report's collected output rows in sorted order:
// the DES interleaves reducers in virtual time, the real backend
// concatenates them in reducer order, and the answer is the set.
func sortedRows(rep *onepass.Report) []string {
	rows := make([]string, 0, len(rep.Outputs))
	for _, kv := range rep.Outputs {
		rows = append(rows, kv[0]+"\t"+kv[1])
	}
	sort.Strings(rows)
	return rows
}

// TestRunRealMatchesRun drives the wall-clock facade end to end: the
// same small job through RunReal, at 1 and at 4 workers, gives the
// DES's answers, record counts, and logical U1–U5 byte volumes.
func TestRunRealMatchesRun(t *testing.T) {
	for _, pl := range []onepass.Platform{
		onepass.SortMerge, onepass.HOP, onepass.MRHash, onepass.INCHash, onepass.DINCHash,
	} {
		job := smallJob(pl)
		job.CollectOutput = true
		des, err := onepass.Run(job)
		if err != nil {
			t.Fatalf("%v: Run: %v", pl, err)
		}
		for _, workers := range []int{1, 4} {
			wall, err := onepass.RunReal(job, onepass.ClickCount, workers)
			if err != nil {
				t.Fatalf("%v: RunReal(%d workers): %v", pl, workers, err)
			}
			if wall.OutputRecords != des.OutputRecords || wall.OutputRecords == 0 {
				t.Errorf("%v/%d: OutputRecords %d, Run gave %d", pl, workers, wall.OutputRecords, des.OutputRecords)
			}
			if !reflect.DeepEqual(sortedRows(wall), sortedRows(des)) {
				t.Errorf("%v/%d: RunReal outputs differ from Run's", pl, workers)
			}
			bytes := func(r *onepass.Report) [5]int64 {
				return [5]int64{r.InputBytes, r.MapSpillBytes, r.MapOutputBytes, r.ReduceSpillBytes, r.OutputBytes}
			}
			if got, want := bytes(wall), bytes(des); got != want {
				t.Errorf("%v/%d: U1..U5 %v, Run gave %v", pl, workers, got, want)
			}
		}
	}
}

// TestRunRealRejectsDESOnlyPlan checks the facade surfaces the
// backend capability split: a virtual-time node kill runs only on the
// DES, and RunReal refuses it by name instead of running something
// else.
func TestRunRealRejectsDESOnlyPlan(t *testing.T) {
	job := smallJob(onepass.INCHash)
	job.Faults = onepass.FaultPlan{KillNodes: map[int]time.Duration{1: time.Minute}}
	_, err := onepass.RunReal(job, onepass.ClickCount, 2)
	if err == nil {
		t.Fatal("RunReal accepted a KillNodes plan")
	}
	if !strings.Contains(err.Error(), "KillNodes") {
		t.Fatalf("error %q does not name KillNodes", err)
	}
}
