// Package seglog is the durable log discipline shared by the ingest
// WAL and the job store: a directory of numbered append-only segments
// holding one CRC32C frame (internal/frame) per record, fsynced before
// the append returns, plus numbered image files (checkpoints,
// snapshots) that let recovery skip the log prefix they subsume.
//
// The rules live here once:
//
//   - Append writes one frame and fsyncs it; the caller acknowledges
//     only after Append returns. A segment that reaches the seal size
//     is synced, closed, and never written again.
//   - Replay reads only the suffix behind a start position. A torn
//     frame at the tail of the final segment is truncated (that append
//     was never acknowledged); damage anywhere else is a SegmentError,
//     as are gaps in the segment numbering.
//   - Images are written in place and loaded newest-first; a torn or
//     corrupt image falls back to the previous one. Retention counts
//     only images known to load, so a damaged leftover never displaces
//     a good image.
//
// What a record or an image contains is the caller's business: seglog
// sees payload bytes only.
package seglog

import (
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"

	"repro/internal/frame"
)

// ErrCrash is returned by injected failpoints to simulate the process
// dying at that exact point (a torn append, an fsync that never
// happened, a half-written image). Callers wedge when it surfaces; the
// crash harness then reopens the directory like a fresh process.
var ErrCrash = errors.New("seglog: injected crash")

// Names formats and parses one family of numbered files,
// Prefix + zero-padded index + Ext (e.g. "wal-00000001.seg").
type Names struct {
	Prefix, Ext string
	Digits      int
}

// Name returns the file name for index idx.
func (n Names) Name(idx int64) string {
	return fmt.Sprintf("%s%0*d%s", n.Prefix, n.Digits, idx, n.Ext)
}

// parse extracts the decimal index out of a matching file name.
func (n Names) parse(name string) (int64, bool) {
	s, okPrefix := strings.CutPrefix(name, n.Prefix)
	s, okExt := strings.CutSuffix(s, n.Ext)
	idx, err := strconv.ParseUint(s, 10, 63)
	return int64(idx), okPrefix && okExt && err == nil
}

// List returns the sorted indexes of the matching files in dir.
func (n Names) List(dir string) ([]int64, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var idxs []int64
	for _, e := range entries {
		if idx, ok := n.parse(e.Name()); ok {
			idxs = append(idxs, idx)
		}
	}
	sort.Slice(idxs, func(i, j int) bool { return idxs[i] < idxs[j] })
	return idxs, nil
}

// Log names one directory's segments and images.
type Log struct {
	Dir    string
	Segs   Names
	Images Names
}

func (l Log) segPath(idx int64) string { return filepath.Join(l.Dir, l.Segs.Name(idx)) }

// SegmentError reports a damaged segment that recovery refuses to
// repair silently: corruption anywhere, or a torn tail somewhere other
// than the final (still-writable) segment.
type SegmentError struct {
	Segment string
	Offset  int64
	Reason  frame.ScanReason
}

// Error implements error.
func (e *SegmentError) Error() string {
	return fmt.Sprintf("seglog: segment %s damaged at offset %d (%s): acknowledged data cannot be reconstructed", e.Segment, e.Offset, e.Reason)
}

// Writer is the open log: appends go to segment Seg at offset Off.
// Single-writer; callers serialize.
type Writer struct {
	// TornAppend, if non-nil and returning n >= 0 for record id,
	// persists only the first n bytes of the frame and fails the append
	// with ErrCrash — a torn write at a controlled offset.
	TornAppend func(id int64) int
	// BeforeSync fires before fsyncing record id's frame; a non-nil
	// error aborts the append after the (unsynced) write.
	BeforeSync func(id int64) error
	// BeforeSeal fires before sealing segment seg.
	BeforeSeal func(seg int64) error

	Seg, Off                    int64
	Seals, Syncs, AppendedBytes int64

	log       Log
	sealBytes int64
	f         *os.File
	fbuf      []byte
}

// OpenWriter opens segment seg for appending at offset off, creating
// it if absent: recovery hands Replay's end position, a fresh
// directory (1, 0).
func (l Log) OpenWriter(seg, off, sealBytes int64) (*Writer, error) {
	f, err := os.OpenFile(l.segPath(seg), os.O_WRONLY|os.O_CREATE, 0o644)
	if err != nil {
		return nil, err
	}
	if _, err := f.Seek(off, io.SeekStart); err != nil {
		f.Close()
		return nil, err
	}
	return &Writer{log: l, sealBytes: sealBytes, f: f, Seg: seg, Off: off}, nil
}

// Append frames payload, writes it, and fsyncs it — the
// acknowledgment point — returning the log position just past the
// record. The segment seals after the append once it reaches the seal
// size, so the returned position always names the record's own
// segment.
func (w *Writer) Append(id int64, payload []byte) (endSeg, endOff int64, err error) {
	w.fbuf = frame.Append(w.fbuf[:0], payload)
	if w.TornAppend != nil {
		if n := w.TornAppend(id); n >= 0 {
			w.f.Write(w.fbuf[:min(n, len(w.fbuf))])
			w.f.Sync()
			return 0, 0, fmt.Errorf("seglog: torn append of record %d: %w", id, ErrCrash)
		}
	}
	if _, err := w.f.Write(w.fbuf); err != nil {
		return 0, 0, err
	}
	if w.BeforeSync != nil {
		if err := w.BeforeSync(id); err != nil {
			return 0, 0, err
		}
	}
	if err := w.f.Sync(); err != nil {
		return 0, 0, err
	}
	w.Syncs++
	w.AppendedBytes += int64(len(w.fbuf))
	w.Off += int64(len(w.fbuf))
	endSeg, endOff = w.Seg, w.Off
	if w.Off >= w.sealBytes {
		err = w.Seal()
	}
	return endSeg, endOff, err
}

// Seal syncs and closes the open segment and opens the next one.
// Sealed segments are immutable: Replay treats any damage in them as
// corruption, never as a trimmable torn tail.
func (w *Writer) Seal() error {
	if w.BeforeSeal != nil {
		if err := w.BeforeSeal(w.Seg); err != nil {
			return err
		}
	}
	if err := w.f.Sync(); err != nil {
		return err
	}
	if err := w.f.Close(); err != nil {
		return err
	}
	w.Seals++
	w.Seg++
	w.Off = 0
	f, err := os.OpenFile(w.log.segPath(w.Seg), os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	w.f = f
	return syncDir(w.log.Dir)
}

// Close syncs and closes the open segment, which stays appendable on
// the next boot.
func (w *Writer) Close() error {
	if w.f == nil {
		return nil
	}
	err := w.f.Sync()
	if cerr := w.f.Close(); err == nil {
		err = cerr
	}
	w.f = nil
	return err
}

// Abort closes the segment file without syncing — the crash-test
// stand-in for the process dying.
func (w *Writer) Abort() {
	if w != nil && w.f != nil {
		w.f.Close()
		w.f = nil
	}
}

// syncDir fsyncs a directory so creates within it are durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}

// ReplayStats counts the bytes recovery touched.
type ReplayStats struct {
	// ReadBytes is the suffix actually read: from the start position to
	// the end of the log, never segments an image subsumes.
	ReadBytes int64
	// SkippedBytes is the size of segments wholly before the start.
	SkippedBytes int64
	// TornTailsTruncated counts torn frames cut off the final segment
	// (0 or 1).
	TornTailsTruncated int64
}

// Replay calls fn with every record payload from (startSeg, startOff)
// to the end of the log, in order, and returns the position just past
// the last good record — where OpenWriter resumes. startSeg 0 means no
// image: replay starts at the oldest segment present (a fresh
// directory ends at (1, 0)). A start position naming a missing segment
// or an empty log is an error, as is a numbering gap. A torn tail on
// the final segment is truncated; any other damage is a SegmentError.
// A non-nil error from fn stops the replay and is returned, naming the
// segment.
func (l Log) Replay(startSeg, startOff int64, fn func(payload []byte) error) (endSeg, endOff int64, st ReplayStats, err error) {
	segs, err := l.Segs.List(l.Dir)
	if err != nil {
		return 0, 0, st, err
	}
	if startSeg == 0 {
		startSeg, startOff = 1, 0
		if len(segs) > 0 {
			startSeg = segs[0]
		}
	} else if len(segs) == 0 {
		return 0, 0, st, fmt.Errorf("seglog: image references segment %s but the log is empty", l.Segs.Name(startSeg))
	}
	endSeg, endOff = startSeg, startOff
	sawStart := len(segs) == 0 // vacuously fine on a fresh directory
	prev := int64(-1)
	for i, idx := range segs {
		path := l.segPath(idx)
		if idx < startSeg {
			if fi, err := os.Stat(path); err == nil {
				st.SkippedBytes += fi.Size()
			}
			continue
		}
		if idx == startSeg {
			sawStart = true
		} else if prev >= 0 && idx != prev+1 {
			return 0, 0, st, fmt.Errorf("seglog: gap: segment %s follows %s", l.Segs.Name(idx), l.Segs.Name(prev))
		}
		prev = idx

		off0 := int64(0)
		if idx == startSeg {
			off0 = startOff
		}
		data, err := readSuffix(path, off0)
		if err != nil {
			return 0, 0, st, err
		}
		st.ReadBytes += int64(len(data))
		var fnErr error
		res := frame.ScanTail(data, func(p []byte) {
			if fnErr == nil {
				fnErr = fn(p)
			}
		})
		if fnErr != nil {
			return 0, 0, st, fmt.Errorf("%w (segment %s)", fnErr, l.Segs.Name(idx))
		}
		switch {
		case res.Reason == frame.ScanClean:
		case i == len(segs)-1 && res.Reason == frame.ScanTorn:
			if err := os.Truncate(path, off0+res.Good); err != nil {
				return 0, 0, st, err
			}
			st.TornTailsTruncated++
		default:
			return 0, 0, st, &SegmentError{Segment: l.Segs.Name(idx), Offset: off0 + res.Good, Reason: res.Reason}
		}
		endSeg, endOff = idx, off0+res.Good
	}
	if !sawStart {
		return 0, 0, st, fmt.Errorf("seglog: image references missing segment %s", l.Segs.Name(startSeg))
	}
	return endSeg, endOff, st, nil
}

// readSuffix reads path from offset off to EOF — the only bytes
// recovery touches in the segment an image points into.
func readSuffix(path string, off int64) ([]byte, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	fi, err := f.Stat()
	if err != nil {
		return nil, err
	}
	if off >= fi.Size() {
		return nil, nil
	}
	buf := make([]byte, fi.Size()-off)
	if _, err := f.ReadAt(buf, off); err != nil {
		return nil, err
	}
	return buf, nil
}
