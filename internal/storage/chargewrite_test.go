package storage

import (
	"fmt"
	"testing"

	"repro/internal/cost"
	"repro/internal/sim"
)

// TestChargeWriteMatchesAppendFrames: a charge-only write leaves the
// same counters, arm busy time, virtual time and injected-fault draws
// as writing the bytes with Create + AppendFrames, and holds no bytes.
// Zero-length segments record no frame on either side.
func TestChargeWriteMatchesAppendFrames(t *testing.T) {
	writes := [][]int64{
		{5, 0, 300, 17},
		{0, 0, 4096},
		{1},
		{120, 80, 0, 0, 9, 2000},
	}
	m := cost.Default(1)
	type result struct {
		c          Counters
		busy       [2]int64
		now        int64
		retries    int64
		live       int64
		faultDraws int64
	}
	do := func(checksums, faults, charge bool) result {
		k := sim.NewKernel()
		s := NewStore(k, 0, m)
		s.Checksums = checksums
		s.Intermediate = cost.SSD
		if faults {
			s.SetFaults(&DiskFaults{Seed: 11, IOErrorRate: 0.3, CorruptRate: 0.5, Classes: [NumIOClasses]bool{MapOutput: true}})
		}
		k.Spawn("t", func(p *sim.Proc) {
			for i, lens := range writes {
				if charge {
					s.ChargeWrite(p, MapOutput, lens)
					continue
				}
				var n int64
				for _, l := range lens {
					n += l
				}
				s.AppendFrames(p, s.Create(fmt.Sprint("out", i), MapOutput), make([]byte, n), MapOutput, lens)
			}
		})
		if err := k.Run(); err != nil {
			t.Fatal(err)
		}
		r := result{c: *s.Counters(), now: int64(k.NowDur()), retries: s.IORetries(), faultDraws: s.faultSeq}
		r.busy[cost.HDD] = s.Arm(cost.HDD).BusyIntegral()
		r.busy[cost.SSD] = s.Arm(cost.SSD).BusyIntegral()
		if charge {
			r.live = s.LiveBytes()
		}
		return r
	}
	for _, checksums := range []bool{false, true} {
		for _, faults := range []bool{false, true} {
			want, got := do(checksums, faults, false), do(checksums, faults, true)
			if got != want {
				t.Errorf("checksums=%v faults=%v: ChargeWrite %+v, AppendFrames %+v", checksums, faults, got, want)
			}
			if checksums && got.c.OverheadBytes[MapOutput] == 0 {
				t.Errorf("checksums on: no frame overhead charged")
			}
			if faults && got.retries == 0 {
				t.Errorf("faults on: no transient error drawn, the comparison is vacuous")
			}
		}
	}
}
