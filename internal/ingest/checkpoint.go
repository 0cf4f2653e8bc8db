package ingest

import (
	"encoding/binary"
	"errors"
	"fmt"

	"repro/internal/core"
	"repro/internal/frame"
	"repro/internal/seglog"
)

// checkpointVersion guards the header layout; bump on change.
const checkpointVersion = 1

// ErrBadCheckpoint reports a checkpoint file whose frames verified but
// whose contents do not decode — damage beyond what a chain fallback
// should paper over.
var ErrBadCheckpoint = errors.New("ingest: malformed checkpoint")

// checkpoint is one durable snapshot of the resident fold: the
// query's full state image plus the WAL position (segment, end
// offset) just past the last batch folded into it. Recovery restores
// the newest good checkpoint and replays only the WAL suffix after
// (Seg, Off).
//
// File layout (ckpt-<seq>.ck), a seglog image of exactly two frames:
//
//	frame([version][seq][seg][off][watermark] varints)
//	core.FramedImage(Img)
type checkpoint struct {
	Seq       int64 // last batch sequence folded into Img
	Seg, Off  int64 // WAL position just past batch Seq
	Watermark int64 // event-time watermark at the snapshot
	Img       *core.StateImage
}

// encodeCheckpoint renders ck into its file representation.
func encodeCheckpoint(ck *checkpoint) []byte {
	var hdr []byte
	for _, v := range []int64{checkpointVersion, ck.Seq, ck.Seg, ck.Off, ck.Watermark} {
		hdr = binary.AppendVarint(hdr, v)
	}
	out := frame.Append(nil, hdr)
	return append(out, core.FramedImage(ck.Img)...)
}

// Ref identifies the checkpoint in its seglog chain.
func (ck *checkpoint) Ref() seglog.Ref { return seglog.Ref{ID: ck.Seq, Seg: ck.Seg} }

// decodeCheckpoint parses a checkpoint file whose frames verified;
// anything but exactly two frames is malformed.
func decodeCheckpoint(b []byte, frames int) (*checkpoint, error) {
	if frames != 2 {
		return nil, fmt.Errorf("%w: %d frames (want 2)", ErrBadCheckpoint, frames)
	}
	hdr, n, err := frame.Next(b)
	if err != nil {
		return nil, err
	}
	ck := &checkpoint{}
	var version int64
	for _, dst := range []*int64{&version, &ck.Seq, &ck.Seg, &ck.Off, &ck.Watermark} {
		v, vn := binary.Varint(hdr)
		if vn <= 0 {
			return nil, fmt.Errorf("%w: short header", ErrBadCheckpoint)
		}
		*dst = v
		hdr = hdr[vn:]
	}
	if version != checkpointVersion {
		return nil, fmt.Errorf("%w: version %d (want %d)", ErrBadCheckpoint, version, checkpointVersion)
	}
	if len(hdr) != 0 {
		return nil, fmt.Errorf("%w: %d trailing header bytes", ErrBadCheckpoint, len(hdr))
	}
	img, err := core.DecodeFramedImage(b[n:])
	if err != nil {
		return nil, err
	}
	ck.Img = img
	return ck, nil
}

// loadCheckpoint reads and validates one checkpoint file; see
// seglog.LoadImage.
func loadCheckpoint(path string) (*checkpoint, frame.ScanReason, error) {
	return seglog.LoadImage(path, decodeCheckpoint)
}
