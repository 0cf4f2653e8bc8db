package jobstore

import (
	"encoding/binary"
	"errors"
	"fmt"

	"repro/internal/seglog"
)

// ErrCrash is returned by injected failpoints; the store wedges when it
// surfaces. See seglog.ErrCrash.
var ErrCrash = seglog.ErrCrash

// SegmentError reports a damaged log segment that recovery refuses to
// repair silently; see seglog.SegmentError.
type SegmentError = seglog.SegmentError

// ErrBadCommit reports a log frame whose CRC verified but whose
// payload does not decode — a software bug or damage beyond CRC32C's
// guarantee, never a torn write. Recovery refuses to guess.
var ErrBadCommit = errors.New("jobstore: malformed commit payload")

// Failpoints are test hooks for crash injection. All optional; a nil
// Failpoints (or field) is a no-op.
type Failpoints struct {
	// TornCommit, if non-nil and returning n >= 0 for transaction txid,
	// persists only the first n bytes of the commit frame and fails the
	// commit — a torn write at a controlled offset.
	TornCommit func(txid int64) int
	// BeforeCommitSync fires before fsyncing transaction txid's frame; a
	// non-nil error aborts the commit after the (unsynced) write.
	BeforeCommitSync func(txid int64) error
	// TornSnapshot, if non-nil and returning n >= 0 for the snapshot at
	// txid, persists only the first n bytes of the snapshot file and
	// fails — recovery must fall back to the previous snapshot.
	TornSnapshot func(txid int64) int
}

// The store directory: segments log-%08d.seg, snapshots snap-%016d.sn.
var (
	segNames  = seglog.Names{Prefix: "log-", Ext: ".seg", Digits: 8}
	snapNames = seglog.Names{Prefix: "snap-", Ext: ".sn", Digits: 16}
)

func segName(idx int64) string                  { return segNames.Name(idx) }
func snapName(txid int64) string                { return snapNames.Name(txid) }
func listSegments(dir string) ([]int64, error)  { return segNames.List(dir) }
func listSnapshots(dir string) ([]int64, error) { return snapNames.List(dir) }

// Op kinds inside a commit payload.
const (
	opPut    = byte(1)
	opDelete = byte(2)
	opSeq    = byte(3)
)

// op is one mutation inside a transaction.
type op struct {
	kind   byte
	bucket string
	key    string
	val    []byte
	seq    uint64
}

// Commit payload layout, carried as one seglog record (one CRC32C
// frame) per transaction:
//
//	[txid uvarint][nops uvarint]
//	  per op: [kind 1B][blen uvarint][bucket]
//	          put:    [klen uvarint][key][vlen uvarint][val]
//	          delete: [klen uvarint][key]
//	          seq:    [seq uvarint]
//
// txid is 1-based and contiguous across segments; recovery asserts
// contiguity so a lost sealed segment can never be skipped silently.
func appendCommit(dst []byte, txid int64, ops []op) []byte {
	dst = binary.AppendUvarint(dst, uint64(txid))
	dst = binary.AppendUvarint(dst, uint64(len(ops)))
	for _, o := range ops {
		dst = appendBytes(append(dst, o.kind), o.bucket)
		switch o.kind {
		case opPut:
			dst = appendBytes(appendBytes(dst, o.key), o.val)
		case opDelete:
			dst = appendBytes(dst, o.key)
		case opSeq:
			dst = binary.AppendUvarint(dst, o.seq)
		}
	}
	return dst
}

// decodeCommit parses one commit payload. Byte slices alias p.
func decodeCommit(p []byte) (txid int64, ops []op, err error) {
	r := reader{p: p, ok: true}
	txid = int64(r.uvarint())
	nops := r.uvarint()
	if !r.ok || nops > uint64(len(r.p))+1 {
		return 0, nil, ErrBadCommit
	}
	ops = make([]op, 0, nops)
	for i := uint64(0); i < nops; i++ {
		if len(r.p) == 0 {
			return 0, nil, ErrBadCommit
		}
		o := op{kind: r.p[0]}
		r.p = r.p[1:]
		o.bucket = string(r.bytes())
		switch o.kind {
		case opPut:
			o.key = string(r.bytes())
			o.val = r.bytes()
		case opDelete:
			o.key = string(r.bytes())
		case opSeq:
			o.seq = r.uvarint()
		default:
			return 0, nil, fmt.Errorf("%w: op kind %d", ErrBadCommit, o.kind)
		}
		if !r.ok {
			return 0, nil, ErrBadCommit
		}
		ops = append(ops, o)
	}
	if len(r.p) != 0 {
		return 0, nil, fmt.Errorf("%w: %d trailing bytes", ErrBadCommit, len(r.p))
	}
	return txid, ops, nil
}

// appendBytes appends b with its uvarint length prefix.
func appendBytes[B ~string | ~[]byte](dst []byte, b B) []byte {
	return append(binary.AppendUvarint(dst, uint64(len(b))), b...)
}

// reader decodes uvarints and length-prefixed byte strings; ok turns
// false at the first field that does not decode and stays false.
type reader struct {
	p  []byte
	ok bool
}

func (r *reader) uvarint() uint64 {
	v, n := binary.Uvarint(r.p)
	if n <= 0 {
		r.ok = false
		return 0
	}
	r.p = r.p[n:]
	return v
}

// bytes returns the next length-prefixed field, aliasing the input.
func (r *reader) bytes() []byte {
	ln := r.uvarint()
	if !r.ok || ln > uint64(len(r.p)) {
		r.ok = false
		return nil
	}
	b := r.p[:ln:ln]
	r.p = r.p[ln:]
	return b
}

// apply replays one decoded op into the bucket state.
func (s *Store) apply(o op) {
	b := s.getBucket(o.bucket)
	switch o.kind {
	case opPut:
		b.put(o.key, append([]byte(nil), o.val...))
	case opDelete:
		b.delete(o.key)
	case opSeq:
		b.seq = o.seq
	}
}
