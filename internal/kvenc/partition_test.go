package kvenc

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"testing"
)

// splitRef is the per-partition re-encode loop SplitPartitions
// replaces: each pair is appended, less its prefix, to its partition's
// own growing slice.
func splitRef(data []byte, partitions int) ([][]byte, int64) {
	segs := make([][]byte, partitions)
	var n int64
	it := NewIterator(data)
	for pk, v, ok := it.Next(); ok; pk, v, ok = it.Next() {
		part, key := SplitPartitionKey(pk)
		segs[part] = AppendPair(segs[part], key, v)
		n++
	}
	return segs, n
}

func partitionedStream(rng *rand.Rand, n, partitions int) []byte {
	var data []byte
	for i := 0; i < n; i++ {
		key := []byte(fmt.Sprintf("k%d", rng.Intn(300)))
		val := bytes.Repeat([]byte{byte('a' + i%26)}, rng.Intn(200))
		data = AppendPartitionPair(data, rng.Intn(partitions), key, val)
	}
	return data
}

func TestAppendPartitionPairMatchesCompoundKey(t *testing.T) {
	for _, tc := range []struct {
		part int
		key  string
		val  []byte
	}{
		{0, "", nil},
		{7, "user42", []byte("v")},
		{65535, "k", make([]byte, 300)},
		{1, string(make([]byte, 126)), []byte("x")}, // prefix moves the key length past one varint byte
	} {
		want := AppendPair([]byte("pre"), AppendPartitionKey(nil, tc.part, []byte(tc.key)), tc.val)
		if got := AppendPartitionPair([]byte("pre"), tc.part, []byte(tc.key), tc.val); !bytes.Equal(got, want) {
			t.Fatalf("part %d key len %d: %x, want %x", tc.part, len(tc.key), got, want)
		}
		part, key := SplitPartitionKey(AppendPartitionKey(nil, tc.part, []byte(tc.key)))
		if part != tc.part || string(key) != tc.key {
			t.Fatalf("SplitPartitionKey = (%d, %q), want (%d, %q)", part, key, tc.part, tc.key)
		}
	}
}

// TestSplitPartitionsMatchesReference checks the scatter against the
// per-partition loop on sorted runs and on arrival-order streams:
// identical segment bytes, so order within each partition is kept, and
// every segment capped so appends to it cannot reach its neighbour.
func TestSplitPartitionsMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 20; trial++ {
		partitions := 1 + rng.Intn(40)
		data := partitionedStream(rng, rng.Intn(2000), partitions)
		if trial%2 == 0 {
			data, _ = SortStream(data)
		}
		parts, n, err := SplitPartitions(data, partitions)
		if err != nil {
			t.Fatal(err)
		}
		want, wantN := splitRef(data, partitions)
		if n != wantN || len(parts) != partitions {
			t.Fatalf("trial %d: n=%d parts=%d, want n=%d parts=%d", trial, n, len(parts), wantN, partitions)
		}
		for p := range parts {
			switch {
			case len(want[p]) == 0 && parts[p] != nil:
				t.Fatalf("trial %d: empty partition %d has %d segments", trial, p, len(parts[p]))
			case len(want[p]) > 0 && (len(parts[p]) != 1 || !bytes.Equal(parts[p][0], want[p])):
				t.Fatalf("trial %d: partition %d segment differs from the reference", trial, p)
			case len(want[p]) > 0 && cap(parts[p][0]) != len(parts[p][0]):
				t.Fatalf("trial %d: partition %d segment is not capped (cap %d, len %d)", trial, p, cap(parts[p][0]), len(parts[p][0]))
			}
		}
	}
}

func TestSplitPartitionsEmptyAndCorrupt(t *testing.T) {
	parts, n, err := SplitPartitions(nil, 3)
	if err != nil || n != 0 || len(parts) != 3 || parts[0] != nil || parts[1] != nil || parts[2] != nil {
		t.Fatalf("empty input: parts=%v n=%d err=%v", parts, n, err)
	}
	good := AppendPartitionPair(nil, 1, []byte("k"), []byte("v"))
	for name, data := range map[string][]byte{
		"truncated":     good[:len(good)-1],
		"short key":     AppendPair(append([]byte(nil), good...), []byte{0}, []byte("v")),
		"out of range":  AppendPartitionPair(append([]byte(nil), good...), 3, []byte("k"), nil),
		"bad varint":    append(append([]byte(nil), good...), 0xff, 0xff, 0xff),
		"key past data": append(append([]byte(nil), good...), 9, 0, 0),
	} {
		parts, _, err := SplitPartitions(data, 3)
		if !errors.Is(err, ErrCorrupt) || parts != nil {
			t.Fatalf("%s: parts=%v err=%v, want ErrCorrupt and no parts", name, parts, err)
		}
	}
}

func TestSplitPartitionsAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts include race-detector instrumentation")
	}
	data, _ := SortStream(partitionedStream(rand.New(rand.NewSource(9)), 4000, 40))
	allocs := testing.AllocsPerRun(10, func() {
		if _, _, err := SplitPartitions(data, 40); err != nil {
			t.Fatal(err)
		}
	})
	// The output buffer, the cursor array and the two partition-sized
	// lists: nothing per pair or per partition.
	if allocs != 4 {
		t.Fatalf("SplitPartitions of 4000 pairs allocated %.1f times, want 4", allocs)
	}
}
