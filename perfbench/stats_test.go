package main

import (
	"context"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"
)

func TestTailPercentileKeepsTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{
		{10000, 99.9}, // 10 samples above p99.9
		{9999, 99},
		{1000, 99}, // exactly 10 above p99
		{999, 98},
		{200, 95},
		{100, 90},
		{40, 75},
		{39, 50}, // no tail: the median is all the run supports
		{10, 50},
	} {
		p := tailPercentile(c.n)
		if p != c.want {
			t.Errorf("tailPercentile(%d) = %g, want %g", c.n, p, c.want)
		}
		if p != 50 && beyond(c.n, p) < minBeyond {
			t.Errorf("n=%d: p%g has only %d samples beyond", c.n, p, beyond(c.n, p))
		}
	}
}

func TestPercentileNearestRank(t *testing.T) {
	s := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for p, want := range map[float64]float64{50: 5, 90: 9, 99: 10, 10: 1} {
		if got := percentile(s, p); got != want {
			t.Errorf("p%g = %g, want %g", p, got, want)
		}
	}
}

func TestFailuresMissEveryLimit(t *testing.T) {
	var d dist
	for i := 0; i < 990; i++ {
		d.add(1)
	}
	for i := 0; i < 10; i++ {
		d.fail()
	}
	s := d.summary()
	if s.P50 != 1 {
		t.Errorf("p50 = %g, want 1", s.P50)
	}
	// 1% failed: p99 sits on the last successful sample, anything above
	// it on a failure, which reads worse than any real latency.
	if s.TailPct != 99 || s.Tail != 1 {
		t.Errorf("tail p%g = %g, want p99 = 1", s.TailPct, s.Tail)
	}
	if got := percentile(d.sorted(), 99.5); got != missed {
		t.Errorf("p99.5 = %g, want the missed marker %g", got, missed)
	}
	for i := 0; i < 1000; i++ {
		d.fail()
	}
	if s := d.summary(); s.P50 != missed {
		t.Errorf("with most operations failed p50 = %g, want missed", s.P50)
	}
}

func TestRefusedRequestsCountAsFailed(t *testing.T) {
	var n atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if n.Add(1)%4 == 0 {
			w.Header().Set("Retry-After", "1")
			http.Error(w, "overloaded", http.StatusTooManyRequests)
			return
		}
		if r.URL.Path == "/v1/stats" {
			w.Write([]byte(`{"gamma": 0.5}`))
			return
		}
		w.Write([]byte(`{"seq": 1}`))
	}))
	defer srv.Close()

	load := genIngestLoad(7)
	st := load.openLoop(context.Background(), newClient(2), srv.URL, 2, 1000, 200*time.Millisecond, nil)
	if st.attempted == 0 || st.failed == 0 {
		t.Fatalf("attempted %d, failed %d: want some refused requests", st.attempted, st.failed)
	}
	if want := (st.attempted + 3) / 4; st.failed < want-1 || st.failed > want+1 {
		t.Errorf("failed %d of %d, want about every 4th", st.failed, st.attempted)
	}
	missedAcks := 0
	for _, v := range st.acks.ms {
		if v == missed {
			missedAcks++
		}
	}
	missedStats := 0
	for _, v := range st.stats.ms {
		if v == missed {
			missedStats++
		}
	}
	if int64(missedAcks+missedStats) != st.failed {
		t.Errorf("%d+%d latencies marked missed, want %d", missedAcks, missedStats, st.failed)
	}
	var acked int64
	for _, k := range st.perBody {
		acked += k
	}
	if acked != st.ok || st.ok+st.failed != st.attempted-int64(len(st.stats.ms)-missedStats) {
		t.Errorf("acked %d, ok %d, failed %d, attempted %d", acked, st.ok, st.failed, st.attempted)
	}
}

func TestWindowMedianIgnoresOneBadWindow(t *testing.T) {
	var ts, vs []float64
	for w := 0; w < 5; w++ {
		for i := 0; i < 100; i++ {
			v := 1.0
			if w == 2 {
				v = 50 // one stalled second
			}
			ts = append(ts, float64(w)+float64(i)/100)
			vs = append(vs, v)
		}
	}
	ts = append(ts, 5.5) // partial trailing window: dropped
	vs = append(vs, 1000)
	ws := windows(ts, vs, 1, 5.9)
	if len(ws) != 5 {
		t.Fatalf("%d windows, want 5", len(ws))
	}
	if got := windowMedian(ws, func(s []float64) float64 { return percentile(s, 99) }); got != 1 {
		t.Errorf("median of window p99 = %g, want 1", got)
	}
}

func TestMismatchCountsAsFailure(t *testing.T) {
	r := &run{metrics: map[string]metric{}, detail: map[string]metric{}, attempted: 10}
	r.mismatch("answer %d", 1)
	if r.failed != 1 || len(r.problems) != 1 {
		t.Errorf("failed %d, problems %v", r.failed, r.problems)
	}
}
