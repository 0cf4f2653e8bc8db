package jobstore

import (
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/frame"
)

// FuzzDecodeCommit feeds arbitrary bytes to the commit-payload
// decoder. It must never panic, and any payload it accepts must
// re-encode to bytes that decode to the same transaction. The corpus
// is seeded with the commit frames of a real store's log.
func FuzzDecodeCommit(f *testing.F) {
	dir := f.TempDir()
	s, err := Open(Config{Dir: dir, CompactEvery: -1})
	if err != nil {
		f.Fatal(err)
	}
	for i := 0; i < 16; i++ {
		if err := sweepWorkload(s, i); err != nil {
			f.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		f.Fatal(err)
	}
	log, err := os.ReadFile(filepath.Join(dir, segName(1)))
	if err != nil {
		f.Fatal(err)
	}
	if res := frame.ScanTail(log, func(p []byte) { f.Add(append([]byte(nil), p...)) }); res.Frames != 16 {
		f.Fatalf("seed log holds %d commits, want 16", res.Frames)
	}
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, p []byte) {
		txid, ops, err := decodeCommit(p)
		if err != nil {
			return
		}
		txid2, ops2, err := decodeCommit(appendCommit(nil, txid, ops))
		if err != nil {
			t.Fatalf("re-encoded commit does not decode: %v", err)
		}
		if txid2 != txid || !reflect.DeepEqual(ops2, ops) {
			t.Fatalf("round trip changed the commit: tx %d -> %d, ops %+v -> %+v", txid, txid2, ops, ops2)
		}
	})
}
