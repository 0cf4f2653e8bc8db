package seglog

import (
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"

	"repro/internal/frame"
)

var (
	testSegs   = Names{Prefix: "log-", Ext: ".seg", Digits: 8}
	testImages = Names{Prefix: "img-", Ext: ".im", Digits: 16}
)

func testLog(t *testing.T) Log {
	return Log{Dir: t.TempDir(), Segs: testSegs, Images: testImages}
}

func payload(i int) []byte { return []byte(fmt.Sprintf("record-%04d", i)) }

// appendN writes records 1..n through a fresh writer (seal size
// sealBytes) and closes it, returning the writer for its counters.
func appendN(t *testing.T, l Log, n int, sealBytes int64) *Writer {
	t.Helper()
	w, err := l.OpenWriter(1, 0, sealBytes)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= n; i++ {
		if _, _, err := w.Append(int64(i), payload(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	return w
}

// replayAll replays from (seg, off) and collects the payloads.
func replayAll(l Log, seg, off int64) (got []string, endSeg, endOff int64, st ReplayStats, err error) {
	endSeg, endOff, st, err = l.Replay(seg, off, func(p []byte) error {
		got = append(got, string(p))
		return nil
	})
	return got, endSeg, endOff, st, err
}

func want(from, to int) []string {
	var out []string
	for i := from; i <= to; i++ {
		out = append(out, string(payload(i)))
	}
	return out
}

func TestNames(t *testing.T) {
	dir := t.TempDir()
	for _, name := range []string{"log-00000003.seg", "log-00000001.seg", "log-12.seg",
		"log-.seg", "log-0x1.seg", "log-+1.seg", "log-00000002.seg.tmp", "img-00000002.seg", "log-00000004.sn"} {
		if err := os.WriteFile(filepath.Join(dir, name), nil, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	got, err := testSegs.List(dir)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, []int64{1, 3, 12}) {
		t.Fatalf("List = %v, want [1 3 12]", got)
	}
	if n := testSegs.Name(7); n != "log-00000007.seg" {
		t.Fatalf("Name(7) = %q", n)
	}
	if n := testImages.Name(42); n != "img-0000000000000042.im" {
		t.Fatalf("Name(42) = %q", n)
	}
}

// TestAppendReplayRoundTrip: every append is one frame and one fsync,
// segments seal at the size threshold, and a replay from scratch
// returns every record in order and ends where the writer stood.
func TestAppendReplayRoundTrip(t *testing.T) {
	l := testLog(t)
	const n = 40
	w := appendN(t, l, n, 64)
	if w.Syncs != n {
		t.Fatalf("Syncs = %d, want one per append (%d)", w.Syncs, n)
	}
	if w.Seals < 5 {
		t.Fatalf("Seals = %d, want several at SealBytes=64", w.Seals)
	}
	if want := int64(n) * frame.Overhead(len(payload(1))); w.AppendedBytes != want+int64(n*len(payload(1))) {
		t.Fatalf("AppendedBytes = %d, want %d", w.AppendedBytes, want+int64(n*len(payload(1))))
	}
	got, seg, off, st, err := replayAll(l, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want(1, n)) {
		t.Fatalf("replayed %v", got)
	}
	if seg != w.Seg || off != w.Off {
		t.Fatalf("replay ends at (%d, %d), writer at (%d, %d)", seg, off, w.Seg, w.Off)
	}
	if st.ReadBytes != w.AppendedBytes || st.SkippedBytes != 0 || st.TornTailsTruncated != 0 {
		t.Fatalf("stats %+v, want ReadBytes %d only", st, w.AppendedBytes)
	}

	// Reopen at the end and keep appending: the log stays one stream.
	w2, err := l.OpenWriter(seg, off, 64)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := w2.Append(n+1, payload(n+1)); err != nil {
		t.Fatal(err)
	}
	w2.Close()
	if got, _, _, _, err := replayAll(l, 0, 0); err != nil || !reflect.DeepEqual(got, want(1, n+1)) {
		t.Fatalf("after reopen: %v, %v", got, err)
	}
}

// TestReplaySuffixOnly: replaying from a recorded position reads only
// the bytes behind it and counts earlier segments as skipped.
func TestReplaySuffixOnly(t *testing.T) {
	l := testLog(t)
	w, err := l.OpenWriter(1, 0, 64)
	if err != nil {
		t.Fatal(err)
	}
	var midSeg, midOff int64
	for i := 1; i <= 30; i++ {
		seg, off, err := w.Append(int64(i), payload(i))
		if err != nil {
			t.Fatal(err)
		}
		if i == 17 {
			midSeg, midOff = seg, off
		}
	}
	total := w.AppendedBytes
	w.Close()
	got, _, _, st, err := replayAll(l, midSeg, midOff)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want(18, 30)) {
		t.Fatalf("suffix replay = %v", got)
	}
	if st.ReadBytes+st.SkippedBytes+midOff != total {
		t.Fatalf("read %d + skipped %d + offset %d != total %d", st.ReadBytes, st.SkippedBytes, midOff, total)
	}
	if st.SkippedBytes == 0 {
		t.Fatal("no segment skipped")
	}
}

func TestReplayTruncatesTornFinalTail(t *testing.T) {
	l := testLog(t)
	appendN(t, l, 5, 1<<20)
	path := filepath.Join(l.Dir, testSegs.Name(1))
	fi, _ := os.Stat(path)
	good := fi.Size()
	w, err := l.OpenWriter(1, good, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	w.TornAppend = func(id int64) int { return 4 }
	if _, _, err := w.Append(6, payload(6)); !errors.Is(err, ErrCrash) {
		t.Fatalf("torn append: %v, want ErrCrash", err)
	}
	w.Abort()
	if fi, _ := os.Stat(path); fi.Size() != good+4 {
		t.Fatalf("torn append left %d bytes, want %d", fi.Size(), good+4)
	}
	got, seg, off, st, err := replayAll(l, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want(1, 5)) || seg != 1 || off != good || st.TornTailsTruncated != 1 {
		t.Fatalf("got %v end (%d, %d) stats %+v", got, seg, off, st)
	}
	if fi, _ := os.Stat(path); fi.Size() != good {
		t.Fatalf("torn tail not truncated: %d bytes, want %d", fi.Size(), good)
	}
}

// TestReplayRefusesDamageOutsideTheTail: a torn frame in a sealed
// segment and a flipped bit anywhere are SegmentErrors, never trimmed.
func TestReplayRefusesDamageOutsideTheTail(t *testing.T) {
	for _, tc := range []struct {
		name   string
		damage func(b []byte) []byte
		reason frame.ScanReason
	}{
		{"torn-sealed", func(b []byte) []byte { return b[:len(b)-2] }, frame.ScanTorn},
		{"bitflip-sealed", func(b []byte) []byte { b[3] ^= 0x10; return b }, frame.ScanCorrupt},
	} {
		t.Run(tc.name, func(t *testing.T) {
			l := testLog(t)
			appendN(t, l, 20, 64)
			path := filepath.Join(l.Dir, testSegs.Name(1))
			data, _ := os.ReadFile(path)
			if err := os.WriteFile(path, tc.damage(data), 0o644); err != nil {
				t.Fatal(err)
			}
			_, _, _, _, err := replayAll(l, 0, 0)
			var se *SegmentError
			if !errors.As(err, &se) || se.Segment != testSegs.Name(1) || se.Reason != tc.reason {
				t.Fatalf("err = %v, want SegmentError(%s) on %s", err, tc.reason, testSegs.Name(1))
			}
		})
	}
	t.Run("bitflip-final", func(t *testing.T) {
		l := testLog(t)
		appendN(t, l, 3, 1<<20)
		path := filepath.Join(l.Dir, testSegs.Name(1))
		data, _ := os.ReadFile(path)
		data[3] ^= 0x10
		os.WriteFile(path, data, 0o644)
		var se *SegmentError
		if _, _, _, _, err := replayAll(l, 0, 0); !errors.As(err, &se) || se.Reason != frame.ScanCorrupt {
			t.Fatalf("err = %v, want corrupt SegmentError", err)
		}
	})
}

func TestReplayStructuralErrors(t *testing.T) {
	t.Run("gap", func(t *testing.T) {
		l := testLog(t)
		appendN(t, l, 20, 64)
		os.Remove(filepath.Join(l.Dir, testSegs.Name(2)))
		if _, _, _, _, err := replayAll(l, 0, 0); err == nil || !strings.Contains(err.Error(), "gap") {
			t.Fatalf("err = %v, want a gap error", err)
		}
	})
	t.Run("missing-start", func(t *testing.T) {
		l := testLog(t)
		appendN(t, l, 20, 64)
		os.Remove(filepath.Join(l.Dir, testSegs.Name(1)))
		if _, _, _, _, err := replayAll(l, 1, 0); err == nil || !strings.Contains(err.Error(), "missing segment") {
			t.Fatalf("err = %v, want a missing-segment error", err)
		}
	})
	t.Run("empty-log", func(t *testing.T) {
		l := testLog(t)
		if _, _, _, _, err := replayAll(l, 1, 0); err == nil || !strings.Contains(err.Error(), "log is empty") {
			t.Fatalf("err = %v, want an empty-log error", err)
		}
	})
	t.Run("fresh", func(t *testing.T) {
		l := testLog(t)
		got, seg, off, _, err := replayAll(l, 0, 0)
		if err != nil || got != nil || seg != 1 || off != 0 {
			t.Fatalf("fresh replay: %v end (%d, %d) err %v", got, seg, off, err)
		}
	})
	t.Run("callback-error", func(t *testing.T) {
		l := testLog(t)
		appendN(t, l, 3, 1<<20)
		boom := errors.New("boom")
		_, _, _, err := l.Replay(0, 0, func([]byte) error { return boom })
		if !errors.Is(err, boom) || !strings.Contains(err.Error(), testSegs.Name(1)) {
			t.Fatalf("err = %v, want boom naming %s", err, testSegs.Name(1))
		}
	})
}

// testImage is a one-frame image: [id][seg] uvarints.
type testImage struct{ id, seg int64 }

func (im *testImage) Ref() Ref { return Ref{ID: im.id, Seg: im.seg} }

func encodeImage(id, seg int64) []byte {
	return frame.Append(nil, binary.AppendUvarint(binary.AppendUvarint(nil, uint64(id)), uint64(seg)))
}

func decodeImage(data []byte, frames int) (*testImage, error) {
	if frames != 1 {
		return nil, errors.New("want one frame")
	}
	p, _, _ := frame.Next(data)
	id, n := binary.Uvarint(p)
	seg, m := binary.Uvarint(p[max(n, 0):])
	if n <= 0 || m <= 0 {
		return nil, errors.New("short image")
	}
	return &testImage{int64(id), int64(seg)}, nil
}

// loadable returns the image ids on disk and how many of them load.
func loadable(t *testing.T, c *Chain) (ids []int64, good int) {
	t.Helper()
	ids, err := c.Images.List(c.Dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range ids {
		if img, _, err := LoadImage(filepath.Join(c.Dir, c.Images.Name(id)), decodeImage); err == nil && img != nil {
			good++
		}
	}
	return ids, good
}

func TestLoadChainFallsBackPastDamage(t *testing.T) {
	c := &Chain{Log: testLog(t), Retain: 5}
	for _, id := range []int64{1, 2, 3, 4} {
		if _, err := c.Write(Ref{ID: id, Seg: 1}, encodeImage(id, 1)); err != nil {
			t.Fatal(err)
		}
	}
	path := func(id int64) string { return filepath.Join(c.Dir, testImages.Name(id)) }
	data, _ := os.ReadFile(path(4))
	os.WriteFile(path(4), data[:len(data)-1], 0o644) // torn
	data, _ = os.ReadFile(path(3))
	data[2] ^= 0x40
	os.WriteFile(path(3), data, 0o644)                                            // corrupt
	os.WriteFile(path(2), append(encodeImage(2, 1), encodeImage(2, 1)...), 0o644) // wrong shape

	c2 := &Chain{Log: c.Log, Retain: 5}
	img, torn, corrupt, err := LoadChain(c2, decodeImage)
	if err != nil {
		t.Fatal(err)
	}
	if img == nil || img.id != 1 || torn != 1 || corrupt != 2 {
		t.Fatalf("loaded %+v torn %d corrupt %d, want image 1 after 1 torn + 2 corrupt", img, torn, corrupt)
	}

	os.WriteFile(path(9), encodeImage(8, 1), 0o644)
	if _, _, _, err := LoadChain(&Chain{Log: c.Log, Retain: 5}, decodeImage); err == nil {
		t.Fatal("image claiming another id loaded")
	}
}

// TestPruneAfterTornImageKeepsRetainLoadable: a torn image left by a
// crash must not count toward retention. Good image 5, torn image 6,
// restart, write image 11: both 5 and 11 must survive the prune.
// Counting files instead of known-good images keeps [6 11], of which
// only one loads.
func TestPruneAfterTornImageKeepsRetainLoadable(t *testing.T) {
	l := testLog(t)
	appendN(t, l, 30, 64)
	c := &Chain{Log: l, Retain: 2}
	if _, err := c.Write(Ref{ID: 5, Seg: 2}, encodeImage(5, 2)); err != nil {
		t.Fatal(err)
	}
	c.TornWrite = func(id int64) int { return 3 }
	if _, err := c.Write(Ref{ID: 6, Seg: 3}, encodeImage(6, 3)); !errors.Is(err, ErrCrash) {
		t.Fatalf("torn write: %v, want ErrCrash", err)
	}

	c = &Chain{Log: l, Retain: 2} // restart
	img, torn, _, err := LoadChain(c, decodeImage)
	if err != nil || img == nil || img.id != 5 || torn != 1 {
		t.Fatalf("restart loaded %+v (torn %d, err %v), want image 5 past one torn", img, torn, err)
	}
	if _, err := c.Write(Ref{ID: 11, Seg: 4}, encodeImage(11, 4)); err != nil {
		t.Fatal(err)
	}
	ids, good := loadable(t, c)
	if !reflect.DeepEqual(ids, []int64{5, 11}) || good != 2 {
		t.Fatalf("after prune: images %v, %d loadable; want [5 11], 2 loadable", ids, good)
	}
	segs, _ := testSegs.List(l.Dir)
	if segs[0] != 2 {
		t.Fatalf("oldest segment %d, want 2 (the oldest kept image's)", segs[0])
	}
}

// TestPruneRetention: pruning waits until more than Retain images
// exist, then keeps the newest Retain and the segments they need.
func TestPruneRetention(t *testing.T) {
	l := testLog(t)
	appendN(t, l, 30, 64)
	c := &Chain{Log: l, Retain: 2}
	for i, id := range []int64{3, 7} {
		if _, err := c.Write(Ref{ID: id, Seg: int64(i + 2)}, encodeImage(id, int64(i+2))); err != nil {
			t.Fatal(err)
		}
	}
	if segs, _ := testSegs.List(l.Dir); segs[0] != 1 {
		t.Fatalf("segments pruned at %d images (Retain 2): oldest is %d", 2, segs[0])
	}
	if _, err := c.Write(Ref{ID: 12, Seg: 5}, encodeImage(12, 5)); err != nil {
		t.Fatal(err)
	}
	ids, good := loadable(t, c)
	if !reflect.DeepEqual(ids, []int64{7, 12}) || good != 2 {
		t.Fatalf("images %v (%d loadable), want [7 12]", ids, good)
	}
	segs, _ := testSegs.List(l.Dir)
	if segs[0] != 3 || !slices.IsSorted(segs) {
		t.Fatalf("segments %v, want to start at 3", segs)
	}
	// Rewriting the newest id replaces it rather than double-counting.
	if _, err := c.Write(Ref{ID: 12, Seg: 5}, encodeImage(12, 5)); err != nil {
		t.Fatal(err)
	}
	if ids, good := loadable(t, c); !reflect.DeepEqual(ids, []int64{7, 12}) || good != 2 {
		t.Fatalf("after rewrite: images %v (%d loadable), want [7 12]", ids, good)
	}
}
