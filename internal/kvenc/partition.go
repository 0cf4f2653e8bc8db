package kvenc

import (
	"encoding/binary"
	"math/bits"
)

// Map output is partitioned by prefixing each key with its partition id
// as 2 big-endian bytes — the compound key — so one sort orders pairs
// by (partition, key), as Hadoop does, and a hash table keyed on it
// keeps partitions apart. Partition ids are below 1<<16.

// AppendPartitionKey appends the compound key of (part, key) to dst.
func AppendPartitionKey(dst []byte, part int, key []byte) []byte {
	dst = append(dst, byte(part>>8), byte(part))
	return append(dst, key...)
}

// SplitPartitionKey splits a compound key into its partition and key;
// key aliases pk.
func SplitPartitionKey(pk []byte) (part int, key []byte) {
	return int(binary.BigEndian.Uint16(pk)), pk[2:]
}

// AppendPartitionPair appends one pair under the compound key of
// (part, key), bytewise identical to
// AppendPair(dst, AppendPartitionKey(nil, part, key), val) without
// building the compound key separately.
func AppendPartitionPair(dst []byte, part int, key, val []byte) []byte {
	var tmp [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(tmp[:], uint64(len(key)+2))
	dst = append(dst, tmp[:n]...)
	n = binary.PutUvarint(tmp[:], uint64(len(val)))
	dst = append(dst, tmp[:n]...)
	dst = append(dst, byte(part>>8), byte(part))
	dst = append(dst, key...)
	return append(dst, val...)
}

// SplitPartitions moves the pairs of a compound-keyed stream into one
// segment per partition, dropping the partition prefix: parts has one
// entry per partition, nil when the partition has no pair, else a
// one-element list holding its segment. The scatter is stable, so a
// (partition, key)-sorted run yields sorted segments and a stream in
// arrival order keeps that order within each partition.
//
// All segments share one exact-size buffer, laid out in partition
// order; each segment is capped (cap == len), so appending to one can
// never overwrite its neighbour. The buffer is freshly allocated and
// never recycled: it belongs to whoever consumes the segments (the
// shuffle). n is the number of pairs; err is ErrCorrupt when the
// framing is invalid or a compound key is short or names a partition
// out of range, and then parts is nil.
func SplitPartitions(data []byte, partitions int) (parts [][][]byte, n int64, err error) {
	// Pass 1: measure each partition's segment. ends[p] is its size
	// here, then becomes the write cursor, and ends at its end offset.
	ends := make([]int, partitions)
	for d := data; len(d) > 0; n++ {
		keyOff, keyEnd, end, ok := scanPair(d)
		if !ok || keyEnd-keyOff < 2 {
			return nil, 0, ErrCorrupt
		}
		p := int(binary.BigEndian.Uint16(d[keyOff:]))
		if p >= partitions {
			return nil, 0, ErrCorrupt
		}
		klen, vlen := keyEnd-keyOff-2, end-keyEnd
		ends[p] += uvarintLen(klen) + uvarintLen(vlen) + klen + vlen
		d = d[end:]
	}
	total := 0
	for p, size := range ends {
		ends[p] = total
		total += size
	}
	buf := make([]byte, total)
	// Pass 2: copy each pair, less its prefix, to its partition's cursor.
	for d := data; len(d) > 0; {
		keyOff, keyEnd, end, _ := scanPair(d)
		p := int(binary.BigEndian.Uint16(d[keyOff:]))
		w := ends[p]
		w += binary.PutUvarint(buf[w:], uint64(keyEnd-keyOff-2))
		w += binary.PutUvarint(buf[w:], uint64(end-keyEnd))
		w += copy(buf[w:], d[keyOff+2:end])
		ends[p] = w
		d = d[end:]
	}
	segs := make([][]byte, partitions)
	parts = make([][][]byte, partitions)
	start := 0
	for p, e := range ends {
		if e > start {
			segs[p] = buf[start:e:e]
			parts[p] = segs[p : p+1 : p+1]
		}
		start = e
	}
	return parts, n, nil
}

// uvarintLen is the encoded size of v as a uvarint.
func uvarintLen(v int) int { return (bits.Len64(uint64(v)|1) + 6) / 7 }
