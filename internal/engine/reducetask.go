package engine

import (
	"fmt"
	"math"
	"time"

	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/sim"
	"repro/internal/storage"
	"repro/internal/task"
)

// Shuffle-fetch retry backoff against a crashed-but-undeclared node:
// capped exponential, in virtual time.
const (
	fetchRetryBase = 500 * time.Millisecond
	fetchRetryCap  = 8 * time.Second
)

// maxReduceAttempts bounds one reduce task's restart ladder. Injected
// failures are capped per task and node deaths per run, so the only way
// to approach this is sustained spill corruption making every attempt
// fail on its own scratch data — an unwinnable plan (real frameworks
// fail the job after a handful of attempts). Failing loudly beats
// retrying forever.
const maxReduceAttempts = 40

// reduceResult is the outcome of one reduce attempt.
type reduceResult int

const (
	reduceDone           reduceResult = iota
	reduceFailedInjected              // injected failure; retry on the same node
	reduceNodeDead                    // the node crashed mid-attempt
)

// runReduceTask executes one reduce task as a ladder of attempts that
// survives injected failures and node crashes, restoring checkpointed
// state where available. A clean run is the zero-fault case: its first
// attempt completes.
func (j *job) runReduceTask(p *sim.Proc, ridx int, n *node) {
	t := j.tracker
	rs := t.rstates[ridx]
	rs.node = n
	failures := j.spec.Faults.ReduceFailures[ridx]
	for {
		attempt := rs.attempts
		rs.attempts++
		if attempt >= maxReduceAttempts {
			panic(fmt.Sprintf("engine: reduce task %d failed %d attempts (unrecoverable fault plan?)",
				ridx, attempt))
		}
		if attempt > 0 {
			j.restartedReduces++
		}
		inject := attempt < failures
		switch j.runReduceAttempt(p, rs, attempt, inject) {
		case reduceDone:
			rs.done = true
			return
		case reduceFailedInjected:
			// Retry on the same node, as the JobTracker would.
		case reduceNodeDead:
			dead := rs.node
			p.WaitFor(t.cond, func() bool { return dead.declaredDead })
			rs.node = t.pickNode(p.Now())
		}
	}
}

// runReduceAttempt is one attempt of a reduce task: acquire a slot
// (creating the §3.2 waves when R exceeds slots), restore checkpointed
// state, fetch every map task's partition exactly once (retrying
// fetches from crashed nodes with backoff, skipping lost outputs until
// their re-execution republishes), feed the platform reducer, and
// finish. inject fails the attempt after FailPoint of its inputs.
func (j *job) runReduceAttempt(p *sim.Proc, rs *reduceState, attempt int, inject bool) (res reduceResult) {
	n := rs.node
	t := j.tracker
	model := j.spec.Cluster.Model
	ridx := rs.ridx

	// Resolve the checkpoint chain first: a torn or bit-flipped latest
	// image must not contribute its consumed-set — the attempt restarts
	// from the newest image that still verifies (or from scratch).
	img, badCkptBytes := j.resolveCheckpoint(rs)

	// Reset the consumed-set from the last good checkpoint before
	// anything parks: the tracker reads it to decide which lost outputs
	// are still needed, and to re-request any this attempt must re-fetch.
	rs.consumed = make([]bool, j.totalMaps)
	rs.consumedN = 0
	if ck := rs.ckpt; ck != nil {
		copy(rs.consumed, ck.Consumed)
		rs.consumedN = ck.ConsumedN
	}
	t.ensureAvailable(rs)

	p.Acquire(n.reduceSlots, 1)
	defer p.Release(n.reduceSlots, 1)
	start := p.Now()
	kind := "reduce"
	defer func() { j.addSpan(task.ReduceSpan(ridx, attempt), kind, n.idx, start, p.Now()) }()

	// The task counts in one phase gauge at a time: shuffle for the
	// whole fetch loop (the Fig 2(a) timeline semantics), merge while it
	// drives multi-pass merges, then reduce.
	curPhase := metrics.Phase(-1)
	setPhase := func(ph metrics.Phase) {
		if curPhase >= 0 {
			j.gauges.Leave(curPhase)
		}
		curPhase = ph
		if ph >= 0 {
			j.gauges.Enter(ph)
		}
	}
	defer func() { setPhase(-1) }()

	var ledger int64
	var out *task.Output
	defer func() {
		if r := recover(); r != nil {
			switch r.(type) {
			case nodeAborted:
				kind = "reduce-lost"
				j.wastedCPU += ledger
				res = reduceNodeDead
			case *storage.Corruption:
				// A spill/bucket/checkpoint-source frame failed its
				// checksum, or a transient-I/O retry budget ran out: the
				// attempt's scratch state is untrustworthy. Discard it
				// and restart from the last good checkpoint — except on
				// HOP, whose restart would re-emit its snapshots: there
				// the one attempt fails the job.
				if j.spec.Platform == HOP {
					panic(r)
				}
				kind = "reduce-corrupt"
				j.wastedCPU += ledger
				out.Discard()
				res = reduceFailedInjected
			default:
				panic(r)
			}
		}
	}()

	rt := j.newRuntime(p, n, &ledger)
	out = task.NewOutput(&j.out, n.enqueueOutput, j.spec.Cluster.Page, j.spec.CollectOutput, j.spec.ReduceRestarts())
	rcfg := j.rcfg
	rcfg.Prefix = fmt.Sprintf("r%03d.a%d", ridx, attempt)
	red := task.NewReducer(rt, j.spec.Query, rcfg, out)

	// Resume from the last good checkpoint: read the replicated image
	// back and rebuild the reducer, then replay only the unconsumed
	// suffix. Damaged images the resolver discarded were still read
	// before their frame failed verification — charge those bytes too.
	if badCkptBytes > 0 || (img != nil && red.Checkpointable()) {
		setPhase(metrics.PhaseRecover)
		if badCkptBytes > 0 {
			n.store.ChargeCheckpointRead(p, badCkptBytes)
		}
		if ck := rs.ckpt; ck != nil && img != nil {
			ck.Restore(p, n.store, img, red, out)
		}
		setPhase(-1)
	}
	ckptEvery := int64(j.spec.CheckpointEvery)
	lastCkpt := p.Now()

	failN := j.totalMaps
	if inject {
		failN = max(1, int(math.Ceil(j.spec.Faults.FailFraction()*float64(j.totalMaps))))
	}
	failNow := func() bool { return inject && rs.consumedN >= failN }
	failOut := func() reduceResult {
		kind = "reduce-failed"
		j.wastedCPU += ledger
		out.Discard()
		return reduceFailedInjected
	}
	if failNow() {
		return failOut()
	}

	// Shuffle loop: fetch each map task's partition exactly once, in
	// publication order, skipping lost outputs (their re-execution will
	// republish) and backing off on fetches from crashed-but-undeclared
	// nodes. HOP's pushes carry no task, so its loop ends once the last
	// mapper finished and every push is consumed.
	pipelined := j.spec.Platform == HOP
	cursor := 0
	setPhase(metrics.PhaseShuffle)
	var retry int64
	for rs.consumedN < j.totalMaps {
		if n.dead(p.Now()) {
			panic(nodeAborted{n.idx})
		}
		var o *mapOutput
		p.WaitFor(j.shuffle.cond, func() bool {
			o = j.shuffle.pending(&cursor, rs.consumed)
			return o != nil || n.dead(p.Now()) || (pipelined && j.shuffle.drained(cursor))
		})
		if n.dead(p.Now()) {
			panic(nodeAborted{n.idx})
		}
		if o == nil {
			break
		}
		if o.node.dead(p.Now()) {
			// Fetch failure: the serving node crashed but the detector
			// has not declared it yet. Retry with capped exponential
			// backoff; once declared, the output is marked lost and the
			// task re-executes on a survivor.
			j.fetchRetries++
			if retry == 0 {
				retry = int64(fetchRetryBase)
			} else if retry *= 2; retry > int64(fetchRetryCap) {
				retry = int64(fetchRetryCap)
			}
			p.Hold(time.Duration(retry))
			continue
		}
		retry = 0

		if size := o.partBytes[ridx]; size > 0 {
			p.Use(n.nic, 1, model.NetTime(size))
			if o.inMemory {
				j.memFetches++
			} else {
				j.diskFetches++
				if _, err := o.node.store.ReadAtChecked(p, o.file, o.partOff[ridx], size, storage.ShuffleRead); err != nil {
					// The partition's frame failed its checksum. Re-fetch
					// once (the real protocol's first response to a bad
					// payload); the mapper's disk serves the same damaged
					// frame, so give the output up as corrupt — the
					// tracker re-executes the map task and the fresh
					// publication serves this reducer.
					j.fetchRetries++
					j.refetchBytes += size
					p.Use(n.nic, 1, model.NetTime(size))
					if _, err = o.node.store.ReadAtChecked(p, o.file, o.partOff[ridx], size, storage.ShuffleRead); err != nil {
						t.corruptOutput(o)
						continue
					}
				}
			}
			if tk := outputTask(o); tk >= 0 {
				if rs.everFetched[tk] {
					j.refetchBytes += size // recovery traffic: fetched before, by a lost attempt
				} else {
					rs.everFetched[tk] = true
				}
			}
			red.Feed(o.parts[ridx], size, o.task)
		}
		if o.tasks != nil {
			for _, tk := range o.tasks {
				rs.consumed[tk] = true
			}
			rs.consumedN += len(o.tasks)
		} else if o.task >= 0 {
			rs.consumed[o.task] = true
			rs.consumedN++
		}
		cursor++
		j.fetchesDone++
		j.shuffle.release(o)

		if failNow() {
			return failOut()
		}
		if red.Checkpointable() && ckptEvery > 0 && p.Now()-lastCkpt >= ckptEvery {
			j.takeCheckpoint(p, rs, n, red, out)
			lastCkpt = p.Now()
		}
		// HOP snapshots: when the map progress crosses the next
		// threshold, re-merge everything received so far and emit an
		// approximate answer set (§3.3(4)). The task stays counted in
		// the shuffle phase meanwhile.
		frac := float64(j.mapsDone) / float64(j.totalMaps)
		for red.SnapshotDue(frac) {
			j.gauges.Enter(metrics.PhaseMerge)
			j.snapshotRecords += red.Snapshot(n.enqueueOutput)
			j.gauges.Leave(metrics.PhaseMerge)
		}
		if red.NeedsMerge() {
			setPhase(metrics.PhaseMerge)
			red.Merge()
			setPhase(metrics.PhaseShuffle)
		}
	}

	// All map output received: the remaining multi-pass merge is
	// blocking I/O (merge phase); the final merge and the reduce
	// function are the reduce phase.
	setPhase(-1)
	if red.Sorted() {
		setPhase(metrics.PhaseMerge)
		red.PrepareFinal()
	}
	setPhase(metrics.PhaseReduce)
	j.approxKeys += red.Finish(out)
	setPhase(-1)

	// Commit: fold provisional output into the job and wait for the
	// node's write-behind queue to drain.
	out.Commit()
	out.Flush()
	n.syncOutput(p)
	j.reduceCPU += ledger
	return reduceDone
}

// outputTask is the consumed-set index an output is tracked under: its
// map task, or a node-combined run's first covered task (the whole set
// is marked together, so one representative suffices). HOP pushes
// have none (-1).
func outputTask(o *mapOutput) int {
	if o.tasks != nil {
		return o.tasks[0]
	}
	return o.task
}

// ckptImage is a reducer checkpoint as the DES keeps it: the shared
// task.Checkpoint plus one fallback level (prev, the previous image) and
// the damage fault injection can do to the framed blob — torn marks a
// tail truncated when the node died mid-replication.
type ckptImage struct {
	*task.Checkpoint
	torn bool
	prev *ckptImage
}

// takeCheckpoint writes the incremental reducer's checkpoint
// (task.TakeCheckpoint), keeps the previous image as a fallback, and —
// under disk-fault injection — may bit-flip the freshly written frame,
// detected by restore exactly like bit rot on the replicated copy.
func (j *job) takeCheckpoint(p *sim.Proc, rs *reduceState, n *node, red *task.Reducer, out *task.Output) {
	var prev *task.Checkpoint
	if rs.ckpt != nil {
		prev = rs.ckpt.Checkpoint
	}
	ck := &ckptImage{Checkpoint: task.TakeCheckpoint(p, n.store, red, rs.consumed, rs.consumedN, j.totalMaps, prev, out)}
	if d := &j.spec.Faults.Disk; d.CorruptRate > 0 && d.targetsNode(n.idx) &&
		d.classMask()[storage.Checkpoint] && d.windowNS(p.Now()) {
		j.ckptSeq++
		if storage.Roll(d.CorruptRate, d.Seed, int64(n.idx), j.ckptSeq, 4) {
			bit := storage.Hash64(d.Seed, int64(n.idx), j.ckptSeq, 5) % uint64(len(ck.Framed)*8)
			ck.Framed[bit/8] ^= 1 << (bit % 8)
		}
	}
	// Keep one fallback level: the latest image plus its predecessor.
	ck.prev = rs.ckpt
	if ck.prev != nil {
		ck.prev.prev = nil
	}
	rs.ckpt = ck
	j.checkpoints++
}

// resolveCheckpoint walks a reduce task's checkpoint chain newest
// first, discards images whose frame no longer verifies (bit-flipped
// at write time, or torn when their node died mid-replication), and
// leaves rs.ckpt at the newest good image — nil means full replay.
// It returns the decoded state image and the stored bytes of the
// damaged images that were tried (the restore charges reading them:
// the damage is only discovered after the bytes come back).
func (j *job) resolveCheckpoint(rs *reduceState) (img *core.StateImage, badBytes int64) {
	for rs.ckpt != nil {
		ck := rs.ckpt
		if img, err := core.DecodeFramedImage(ck.Framed); err == nil {
			return img, badBytes
		}
		badBytes += ck.StateBytes + ck.BucketSum
		if ck.torn {
			j.tornRepaired++
		} else {
			j.ckptCorrupt++
		}
		rs.ckpt = ck.prev
	}
	return nil, badBytes
}
