package seglog

import (
	"fmt"
	"os"
	"path/filepath"
	"slices"

	"repro/internal/frame"
)

// Ref identifies an image: its file index (the id of the last record
// folded into it) and the segment its replay starts in.
type Ref struct{ ID, Seg int64 }

// Image is a decoded image file.
type Image interface{ Ref() Ref }

// LoadImage reads and validates one image file. decode gets the whole
// file and its verified frame count, so each caller keeps its own
// shape rule; a decode error marks the image corrupt. A zero T with a
// non-Clean reason means structural damage (fall back to an older
// image); an error means I/O trouble worth surfacing.
func LoadImage[T Image](path string, decode func(data []byte, frames int) (T, error)) (T, frame.ScanReason, error) {
	var zero T
	data, err := os.ReadFile(path)
	if err != nil {
		return zero, frame.ScanClean, err
	}
	res := frame.ScanTail(data, nil)
	if res.Reason != frame.ScanClean {
		return zero, res.Reason, nil
	}
	img, err := decode(data, res.Frames)
	if err != nil {
		return zero, frame.ScanCorrupt, nil
	}
	return img, frame.ScanClean, nil
}

// Chain is a log's image files plus the retention state over them.
// Images are written in place (no tmp+rename): a torn image is an
// expected artifact of a crash and loading falls back past it, which
// is why Retain should be at least two.
type Chain struct {
	Log
	// Retain is how many good images pruning keeps (at least 1).
	Retain int
	// TornWrite, if non-nil and returning n >= 0 for image id, persists
	// only the first n bytes of the image and fails with ErrCrash.
	TornWrite func(id int64) int

	good []Ref // images known to load, oldest first, at most Retain
}

// LoadChain returns the newest image that loads whole, walking back
// past torn and corrupt ones (counted separately), and records it as
// good for retention. A zero T means no image loads: replay then
// starts at the oldest segment. An image whose contents claim a
// different id than its file name is an error.
func LoadChain[T Image](c *Chain, decode func(data []byte, frames int) (T, error)) (img T, torn, corrupt int64, err error) {
	ids, err := c.Images.List(c.Dir)
	if err != nil {
		return img, 0, 0, err
	}
	for i := len(ids) - 1; i >= 0; i-- {
		name := c.Images.Name(ids[i])
		got, reason, err := LoadImage(filepath.Join(c.Dir, name), decode)
		switch {
		case err != nil:
			return img, torn, corrupt, err
		case reason == frame.ScanTorn:
			torn++
		case reason != frame.ScanClean:
			corrupt++
		case got.Ref().ID != ids[i]:
			return img, torn, corrupt, fmt.Errorf("seglog: image %s claims id %d", name, got.Ref().ID)
		default:
			c.good = []Ref{got.Ref()}
			return got, torn, corrupt, nil
		}
	}
	return img, torn, corrupt, nil
}

// Write persists data as image ref.ID, fsyncing the file and the
// directory, then prunes. Returns the file size.
func (c *Chain) Write(ref Ref, data []byte) (int64, error) {
	name := c.Images.Name(ref.ID)
	path := filepath.Join(c.Dir, name)
	// An image being overwritten is no longer known to load.
	for len(c.good) > 0 && c.good[len(c.good)-1].ID >= ref.ID {
		c.good = c.good[:len(c.good)-1]
	}
	if c.TornWrite != nil {
		if n := c.TornWrite(ref.ID); n >= 0 {
			os.WriteFile(path, data[:min(n, len(data))], 0o644)
			return 0, fmt.Errorf("seglog: torn write of image %s: %w", name, ErrCrash)
		}
	}
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return 0, err
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		return 0, err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return 0, err
	}
	if err := f.Close(); err != nil {
		return 0, err
	}
	if err := syncDir(c.Dir); err != nil {
		return 0, err
	}
	c.good = append(c.good, ref)
	if len(c.good) > c.Retain {
		c.good = slices.Delete(c.good, 0, len(c.good)-c.Retain)
	}
	c.prune()
	return int64(len(data)), nil
}

// prune runs once the directory holds more than Retain image files:
// it keeps the retained good images, deletes every other image file —
// older ones and damaged leftovers alike, so a torn image never
// displaces a good one — and deletes the segments wholly before the
// oldest kept image's segment (that segment stays: replay may start
// mid-file inside it). Best-effort: deletion failures are ignored; the
// files are garbage, not state.
func (c *Chain) prune() {
	ids, err := c.Images.List(c.Dir)
	if err != nil || len(ids) <= c.Retain {
		return
	}
	minSeg := c.good[0].Seg
	for _, r := range c.good {
		minSeg = min(minSeg, r.Seg)
	}
	for _, id := range ids {
		if !slices.ContainsFunc(c.good, func(r Ref) bool { return r.ID == id }) {
			os.Remove(filepath.Join(c.Dir, c.Images.Name(id)))
		}
	}
	segs, err := c.Segs.List(c.Dir)
	if err != nil {
		return
	}
	for _, idx := range segs {
		if idx < minSeg {
			os.Remove(c.segPath(idx))
		}
	}
}
