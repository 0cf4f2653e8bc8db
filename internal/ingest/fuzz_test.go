package ingest

import (
	"reflect"
	"testing"
)

// FuzzDecodeBatch feeds arbitrary bytes to the WAL batch decoder. It
// must never panic, and any payload it accepts must re-encode to bytes
// that decode to the same batch.
func FuzzDecodeBatch(f *testing.F) {
	f.Add(appendBatch(nil, 1, testBatch(1, 3)))
	f.Add(appendBatch(nil, 1<<40, testBatch(7, 1)))
	f.Add(appendBatch(nil, 2, [][]byte{{}, []byte("x")}))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, p []byte) {
		seq, recs, err := decodeBatch(p)
		if err != nil {
			return
		}
		seq2, recs2, err := decodeBatch(appendBatch(nil, seq, recs))
		if err != nil {
			t.Fatalf("re-encoded batch does not decode: %v", err)
		}
		if seq2 != seq || !reflect.DeepEqual(recs2, recs) {
			t.Fatalf("round trip changed the batch: seq %d -> %d, records %q -> %q", seq, seq2, recs, recs2)
		}
	})
}
