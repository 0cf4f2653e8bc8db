package engine

import (
	"repro/internal/sim"
	"repro/internal/storage"
)

// mapOutput is one published unit of map output: the whole output of a
// completed map task (sort-merge, hash), or one pushed spill (HOP
// pipelining, where mappers publish eagerly at spill granularity).
type mapOutput struct {
	id   int
	node *node

	parts     [][][]byte // per partition: list of encoded segments
	partBytes []int64
	partOff   []int64 // byte offset of each partition in file
	file      *storage.File

	records  int64 // pairs across all partitions
	inMemory bool
	fetches  int
	refs     int // partitions not yet fetched by all reducers

	// task is the map task index this output came from (-1 for HOP
	// spill pushes, which are never re-executed, and for node-combined
	// runs).
	task int
	// tasks is the ascending set of map tasks a node-combined run
	// covers (nil for per-task outputs and HOP pushes). Reducers
	// consume all of them atomically.
	tasks []int
	// lost marks the output unfetchable: its node died before every
	// reducer got its partition. Reducers skip lost outputs; the
	// tracker re-executes the task if anyone still needs it.
	lost bool
}

// shuffleService is the centralized "which mappers have completed"
// service reducers poll (§2.2); Broadcast replaces polling in the
// simulation.
type shuffleService struct {
	cond        *sim.Cond
	outputs     []*mapOutput
	mappersDone int
	mappersAll  int
	reducers    int

	// retain disables end-of-fetch reclamation. Set for runs that can
	// kill nodes or fail reduce attempts: a restarted reducer must be
	// able to re-fetch outputs that every other reducer already drained.
	retain bool
}

func newShuffleService(k *sim.Kernel, mappers, reducers int) *shuffleService {
	return &shuffleService{
		cond:       sim.NewCond(k, "shuffle"),
		mappersAll: mappers,
		reducers:   reducers,
	}
}

// publish makes a map output unit available to reducers.
func (s *shuffleService) publish(o *mapOutput) {
	o.id = len(s.outputs)
	o.refs = s.reducers
	s.outputs = append(s.outputs, o)
	s.cond.Broadcast()
}

// mapperFinished records one map task completion.
func (s *shuffleService) mapperFinished() {
	s.mappersDone++
	s.cond.Broadcast()
}

// pending returns the first output at or after *cursor that a reducer
// with the given consumed-set still has to fetch, advancing *cursor
// past outputs it never will: lost ones (a re-execution republishes
// later in the list) and ones whose tasks it already consumed. HOP
// pushes carry no task and are fetched in order. Outputs are only ever
// appended, so each reducer scans the list once per attempt; nil means
// nothing is available yet.
func (s *shuffleService) pending(cursor *int, consumed []bool) *mapOutput {
	for ; *cursor < len(s.outputs); *cursor++ {
		o := s.outputs[*cursor]
		if o.lost || (outputTask(o) >= 0 && consumed[outputTask(o)]) {
			continue
		}
		return o
	}
	return nil
}

// drained reports whether a reducer whose cursor is at the end has
// seen everything: every mapper finished, so no more outputs appear.
func (s *shuffleService) drained(cursor int) bool {
	return cursor == len(s.outputs) && s.mappersDone == s.mappersAll
}

// release notes that one reducer has fetched its partition; when all
// have, the output's memory and disk file are reclaimed (unless the
// run retains outputs for possible re-fetch after failures).
func (s *shuffleService) release(o *mapOutput) {
	o.refs--
	if o.refs == 0 && !s.retain {
		if o.file != nil {
			o.node.store.Delete(o.file)
			o.file = nil
		}
		o.parts = nil
	}
}

// markLost invalidates every output stored on the given node: the
// node's disk (and page cache) died with it. The encoded bytes are
// kept — they back the deterministic re-execution check in tests —
// but reducers treat lost outputs as unfetchable. Broadcast wakes
// reducers parked waiting on an output that will now never be served.
func (s *shuffleService) markLost(nodeIdx int) (lost []*mapOutput) {
	for _, o := range s.outputs {
		if o.node.idx == nodeIdx && !o.lost {
			o.lost = true
			lost = append(lost, o)
		}
	}
	s.cond.Broadcast()
	return lost
}
