package jobstore

import (
	"encoding/binary"
	"errors"
	"fmt"

	"repro/internal/frame"
	"repro/internal/seglog"
)

// snapshotVersion guards the snapshot layout; bump on change.
const snapshotVersion = 1

// ErrBadSnapshot reports a snapshot file whose frames verified but
// whose contents do not decode — damage beyond what a chain fallback
// should paper over.
var ErrBadSnapshot = errors.New("jobstore: malformed snapshot")

// snapshot is one compacted image of the full bucket state plus the
// log position (segment, end offset) just past the last transaction
// folded into it. Recovery restores the newest good snapshot and
// replays only the log suffix after (Seg, Off).
//
// File layout (snap-<txid>.sn), a seglog image whose frames span the
// file exactly:
//
//	frame([version][txid][seg][off][nbuckets] varints)
//	nbuckets × frame([name][seq][npairs]([key][val])*)
type snapshot struct {
	Txid     int64 // last transaction id applied to the image
	Seg, Off int64 // log position just past transaction Txid
	buckets  []snapBucket
}

type snapBucket struct {
	name  string
	seq   uint64
	pairs [][2][]byte // insertion order
}

// encodeSnapshot renders the current bucket state (caller holds s.mu)
// into its file representation.
func (s *Store) encodeSnapshot(txid, seg, off int64) []byte {
	var hdr []byte
	for _, v := range []int64{snapshotVersion, txid, seg, off, int64(len(s.names))} {
		hdr = binary.AppendUvarint(hdr, uint64(v))
	}
	out := frame.Append(nil, hdr)
	var body []byte
	for _, name := range s.names {
		b := s.buckets[name]
		body = appendBytes(body[:0], name)
		body = binary.AppendUvarint(body, b.seq)
		body = binary.AppendUvarint(body, uint64(len(b.keys)))
		for _, k := range b.keys {
			body = appendBytes(appendBytes(body, k), b.vals[k])
		}
		out = frame.Append(out, body)
	}
	return out
}

// Ref identifies the snapshot in its seglog chain.
func (sn *snapshot) Ref() seglog.Ref { return seglog.Ref{ID: sn.Txid, Seg: sn.Seg} }

// decodeSnapshot parses a snapshot file whose frames already verified
// clean (whole-file span): a header frame and one frame per bucket.
func decodeSnapshot(b []byte, frames int) (*snapshot, error) {
	if frames < 1 {
		return nil, fmt.Errorf("%w: no header frame", ErrBadSnapshot)
	}
	hdr, n, err := frame.Next(b)
	if err != nil {
		return nil, err
	}
	b = b[n:]
	r := reader{p: hdr, ok: true}
	var fields [5]int64
	for i := range fields {
		fields[i] = int64(r.uvarint())
	}
	if !r.ok {
		return nil, fmt.Errorf("%w: short header", ErrBadSnapshot)
	}
	if len(r.p) != 0 {
		return nil, fmt.Errorf("%w: %d trailing header bytes", ErrBadSnapshot, len(r.p))
	}
	if fields[0] != snapshotVersion {
		return nil, fmt.Errorf("%w: version %d (want %d)", ErrBadSnapshot, fields[0], snapshotVersion)
	}
	sn := &snapshot{Txid: fields[1], Seg: fields[2], Off: fields[3]}
	nb := fields[4]
	for i := int64(0); i < nb; i++ {
		body, bn, err := frame.Next(b)
		if err != nil {
			return nil, err
		}
		b = b[bn:]
		bk, err := decodeSnapBucket(body)
		if err != nil {
			return nil, err
		}
		sn.buckets = append(sn.buckets, bk)
	}
	if len(b) != 0 {
		return nil, fmt.Errorf("%w: %d trailing bytes", ErrBadSnapshot, len(b))
	}
	return sn, nil
}

func decodeSnapBucket(p []byte) (snapBucket, error) {
	r := reader{p: p, ok: true}
	bk := snapBucket{name: string(r.bytes()), seq: r.uvarint()}
	npairs := r.uvarint()
	for i := uint64(0); i < npairs && r.ok; i++ {
		k := append([]byte(nil), r.bytes()...)
		v := append([]byte(nil), r.bytes()...)
		bk.pairs = append(bk.pairs, [2][]byte{k, v})
	}
	if !r.ok || len(r.p) != 0 {
		return bk, fmt.Errorf("%w: bucket %q does not decode", ErrBadSnapshot, bk.name)
	}
	return bk, nil
}

// restoreSnapshot replaces the in-memory state with sn's contents.
func (s *Store) restoreSnapshot(sn *snapshot) {
	s.buckets = make(map[string]*bucket, len(sn.buckets))
	s.names = s.names[:0]
	for _, bk := range sn.buckets {
		b := s.getBucket(bk.name)
		b.seq = bk.seq
		for _, kv := range bk.pairs {
			b.put(string(kv[0]), kv[1])
		}
	}
}

// compactLocked writes a snapshot at the current log position; the
// chain prunes snapshots and segments it subsumes. Callers hold s.mu.
func (s *Store) compactLocked() error {
	txid := s.nextTx - 1
	data := s.encodeSnapshot(txid, s.log.Seg, s.log.Off)
	n, err := s.chain.Write(seglog.Ref{ID: txid, Seg: s.log.Seg}, data)
	if err != nil {
		return err
	}
	s.snapshots++
	s.snapshotBytes += n
	s.commits = 0
	return nil
}

// recover restores the newest good snapshot and replays the log suffix
// behind it, asserting transaction-id contiguity; see Open.
func (s *Store) recover() error {
	s.chain = &seglog.Chain{
		Log:    seglog.Log{Dir: s.cfg.Dir, Segs: segNames, Images: snapNames},
		Retain: s.cfg.RetainSnapshots,
	}
	if s.cfg.Fail != nil {
		s.chain.TornWrite = s.cfg.Fail.TornSnapshot
	}
	sn, torn, corrupt, err := seglog.LoadChain(s.chain, decodeSnapshot)
	if err != nil {
		return err
	}
	s.Recovery.SnapshotsDiscarded = torn + corrupt
	var startSeg, startOff int64
	expected := int64(1)
	if sn != nil {
		s.restoreSnapshot(sn)
		startSeg, startOff = sn.Seg, sn.Off
		expected = sn.Txid + 1
		s.Recovery.RestoredTx = sn.Txid
	}

	lastSeg, lastEnd, st, err := s.chain.Replay(startSeg, startOff, func(p []byte) error {
		txid, ops, err := decodeCommit(p)
		if err != nil {
			return err
		}
		if txid != expected {
			return fmt.Errorf("jobstore: log replay expected tx %d, found %d", expected, txid)
		}
		for _, o := range ops {
			s.apply(o)
		}
		s.Recovery.ReplayedTx++
		expected++
		return nil
	})
	if err != nil {
		return err
	}
	s.Recovery.RecoveryReadBytes = st.ReadBytes
	s.Recovery.SkippedSegBytes = st.SkippedBytes
	s.Recovery.TornTailsTruncated = st.TornTailsTruncated

	w, err := s.chain.OpenWriter(lastSeg, lastEnd, s.cfg.SealBytes)
	if err != nil {
		return err
	}
	if fp := s.cfg.Fail; fp != nil {
		w.TornAppend, w.BeforeSync = fp.TornCommit, fp.BeforeCommitSync
	}
	s.log = w
	s.nextTx = expected
	return nil
}
