package ingest

import (
	"encoding/binary"
	"errors"
	"fmt"

	"repro/internal/seglog"
)

// ErrCrash is returned by injected failpoints; the service wedges when
// it surfaces. See seglog.ErrCrash.
var ErrCrash = seglog.ErrCrash

// SegmentError reports a damaged WAL segment that recovery refuses to
// repair silently; see seglog.SegmentError.
type SegmentError = seglog.SegmentError

// Failpoints are test hooks for crash and overload injection. All are
// optional; a nil Failpoints (or field) is a no-op.
type Failpoints struct {
	// BeforeAppendSync fires before fsyncing batch seq's frame; a
	// non-nil error aborts the append after the (unsynced) write.
	BeforeAppendSync func(seq int64) error
	// TornAppend, if non-nil and returning n >= 0 for batch seq,
	// persists only the first n bytes of the frame and fails the
	// append — a torn write at a controlled offset.
	TornAppend func(seq int64) int
	// BeforeSeal fires before sealing segment seg.
	BeforeSeal func(seg int64) error
	// TornCheckpoint, if non-nil and returning n >= 0 for the
	// checkpoint at seq, persists only the first n bytes of the
	// checkpoint file and fails — a torn checkpoint that recovery must
	// fall back from.
	TornCheckpoint func(seq int64) int
	// FoldDelay is called before folding each batch; tests use it to
	// stall the folder and force admission control to engage.
	FoldDelay func(seq int64)
}

// The WAL directory: segments wal-%08d.seg, checkpoints ckpt-%016d.ck.
var (
	segNames  = seglog.Names{Prefix: "wal-", Ext: ".seg", Digits: 8}
	ckptNames = seglog.Names{Prefix: "ckpt-", Ext: ".ck", Digits: 16}
)

func segName(idx int64) string                    { return segNames.Name(idx) }
func ckptName(seq int64) string                   { return ckptNames.Name(seq) }
func listSegments(dir string) ([]int64, error)    { return segNames.List(dir) }
func listCheckpoints(dir string) ([]int64, error) { return ckptNames.List(dir) }

// ErrBadBatch reports a WAL batch payload that does not decode. A
// frame that verified its CRC but fails here means a software bug (or
// damage beyond CRC32C's guarantee), never a torn write — recovery
// refuses to guess and fails loudly.
var ErrBadBatch = errors.New("ingest: malformed batch payload")

// Batch payload layout, carried as one seglog record (one CRC32C
// frame) per WAL append:
//
//	[seq uvarint][count uvarint]([len uvarint][record bytes])*
//
// seq is the global batch sequence number (1-based, monotone across
// segments); recovery asserts contiguity so a lost sealed segment can
// never be skipped silently.

// appendBatch encodes one batch onto dst.
func appendBatch(dst []byte, seq int64, records [][]byte) []byte {
	dst = binary.AppendUvarint(dst, uint64(seq))
	dst = binary.AppendUvarint(dst, uint64(len(records)))
	for _, rec := range records {
		dst = append(binary.AppendUvarint(dst, uint64(len(rec))), rec...)
	}
	return dst
}

// decodeBatch decodes a batch payload. Records alias p.
func decodeBatch(p []byte) (seq int64, records [][]byte, err error) {
	u, n := binary.Uvarint(p)
	if n <= 0 {
		return 0, nil, ErrBadBatch
	}
	seq = int64(u)
	p = p[n:]
	count, n := binary.Uvarint(p)
	if n <= 0 || count > uint64(len(p)) {
		return 0, nil, ErrBadBatch
	}
	p = p[n:]
	records = make([][]byte, 0, count)
	for i := uint64(0); i < count; i++ {
		ln, n := binary.Uvarint(p)
		if n <= 0 || ln > uint64(len(p)-n) {
			return 0, nil, ErrBadBatch
		}
		records = append(records, p[n:n+int(ln):n+int(ln)])
		p = p[n+int(ln):]
	}
	if len(p) != 0 {
		return 0, nil, fmt.Errorf("%w: %d trailing bytes", ErrBadBatch, len(p))
	}
	return seq, records, nil
}
