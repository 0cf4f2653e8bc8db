package task

import (
	"repro/internal/core"
	"repro/internal/frame"
	"repro/internal/storage"
	"repro/internal/substrate"
)

// Sink charges a batch of reduce-output bytes to the task's node: the
// DES queues them on the node's write-behind queue, the real backend
// charges Store.ChargeOutputWrite inline. It is only called with
// positive byte counts.
type Sink func(physBytes int64)

// Totals is committed reduce output: records, bytes, and the rows when
// the job collects them.
type Totals struct {
	Records, Bytes int64
	Rows           [][2]string
}

// add counts one record and returns its size.
func (t *Totals) add(key, value []byte, collect bool) int64 {
	sz := int64(len(key) + len(value) + 2)
	t.Records++
	t.Bytes += sz
	if collect {
		t.Rows = append(t.Rows, [2]string{string(key), string(value)})
	}
	return sz
}

// Output is a reduce attempt's output writer (mr.OutputWriter). A
// direct writer commits every emission into the job totals at Emit —
// the DES progress sampler reads them live — and sinks its bytes in
// Page-sized batches. Where an attempt can fail after emitting
// (injected reduce failures, node kills, restartable disk faults) the
// writer is provisional: output buffers in the attempt, is staged with
// each checkpoint, and commits only when the attempt completes.
// Staging ties output visibility to the checkpoint chain the task
// finally restores from: a restore to an older image drops everything
// staged after it, so the replayed suffix emits exactly once.
type Output struct {
	to          *Totals
	sink        Sink
	flushAt     int64
	collect     bool
	provisional bool
	pending     int64

	buf    Totals // provisional output, cumulative over the attempt
	staged int64  // buf.Bytes already sunk at checkpoints
}

// NewOutput returns an attempt's writer committing into to.
func NewOutput(to *Totals, sink Sink, flushAt int64, collect, provisional bool) *Output {
	return &Output{to: to, sink: sink, flushAt: flushAt, collect: collect, provisional: provisional}
}

// Emit implements mr.OutputWriter.
func (w *Output) Emit(key, value []byte) {
	if w.provisional {
		w.buf.add(key, value, w.collect)
		return
	}
	if w.pending += w.to.add(key, value, w.collect); w.pending >= w.flushAt {
		w.Flush()
	}
}

// Flush sinks the batched bytes.
func (w *Output) Flush() {
	if w.pending > 0 {
		w.sink(w.pending)
		w.pending = 0
	}
}

// Commit folds a provisional attempt's output into the totals; the
// bytes not yet staged by a checkpoint sink at the next Flush. Called
// exactly once, when the attempt completes.
func (w *Output) Commit() {
	if !w.provisional {
		return
	}
	w.to.Records += w.buf.Records
	w.to.Bytes += w.buf.Bytes
	w.to.Rows = append(w.to.Rows, w.buf.Rows...)
	w.pending += w.buf.Bytes - w.staged
	w.buf, w.staged = Totals{}, 0
}

// Discard drops a failed attempt's provisional output; the next
// attempt reloads its restore point's staged prefix.
func (w *Output) Discard() {
	w.buf, w.staged, w.pending = Totals{}, 0, 0
}

// consumedBitBytes is the serialized size of one map task's entry in a
// checkpoint's consumed-set image.
const consumedBitBytes = 1

// Checkpoint is one committed reducer checkpoint: the CRC32C-framed
// state image, the consumed-set at the instant it was taken, and the
// byte accounting for delta writes and restore reads. The image travels
// as a framed blob, exactly what the DES's fault injection damages and
// what a restore verifies.
type Checkpoint struct {
	Framed     []byte // core.FramedImage of the state image
	Consumed   []bool
	ConsumedN  int
	StateBytes int64   // table/sketch + consumed-set bytes, rewritten each time
	BucketLens []int64 // cumulative per-bucket bytes (delta vs. the previous image)
	BucketSum  int64   // Σ BucketLens, all read back on restore

	// staged is the attempt's output up to this image. It becomes
	// visible only through the chain the task completes on, like a
	// transactional sink.
	staged Totals
}

// TakeCheckpoint snapshots red's incremental state with the consumed-set
// into a framed image, charges the write on st (the full state plus a
// consumed-set entry per map task, of which there are tasks, plus only
// the bucket bytes appended since prev), and stages out's output so far
// with the image.
func TakeCheckpoint(p substrate.Proc, st *storage.Store, red *Reducer, consumed []bool, consumedN, tasks int, prev *Checkpoint, out *Output) *Checkpoint {
	var img *core.StateImage
	if red.inch != nil {
		img = red.inch.Snapshot()
	} else {
		img = red.dinch.Snapshot()
	}
	payload := core.MarshalImage(img)
	ck := &Checkpoint{
		Framed:     frame.Append(nil, payload),
		Consumed:   append([]bool(nil), consumed...),
		ConsumedN:  consumedN,
		StateBytes: img.StateBytes() + int64(tasks)*consumedBitBytes,
		BucketLens: img.BucketLens(),
	}
	write := ck.StateBytes
	for i, l := range ck.BucketLens {
		ck.BucketSum += l
		var pl int64
		if prev != nil && i < len(prev.BucketLens) {
			pl = prev.BucketLens[i]
		}
		if l > pl {
			write += l - pl
		}
	}
	st.ChargeCheckpointWrite(p, write)
	if st.Checksums {
		st.NoteOverhead(storage.Checkpoint, frame.Overhead(len(payload)))
	}
	if out.provisional {
		if d := out.buf.Bytes - out.staged; d > 0 {
			out.sink(d)
		}
		out.staged = out.buf.Bytes
		// Clip capacity so later Emits reallocate instead of writing
		// through the image's view of the rows.
		out.buf.Rows = out.buf.Rows[:len(out.buf.Rows):len(out.buf.Rows)]
		ck.staged = out.buf
	}
	return ck
}

// Restore resumes an attempt from ck: it charges reading the replicated
// image back (state, consumed-set, and every bucket byte), rebuilds
// red from img (ck.Framed, decoded and verified by the caller), and
// reloads the output staged with ck. Output staged after ck is gone:
// the replayed suffix emits it again.
func (ck *Checkpoint) Restore(p substrate.Proc, st *storage.Store, img *core.StateImage, red *Reducer, out *Output) {
	st.ChargeCheckpointRead(p, ck.StateBytes+ck.BucketSum)
	if red.inch != nil {
		red.inch.Restore(img)
	} else {
		red.dinch.Restore(img)
	}
	out.buf, out.staged = ck.staged, ck.staged.Bytes
	out.buf.Rows = out.buf.Rows[:len(out.buf.Rows):len(out.buf.Rows)]
}
