package bytestore

import (
	"math/bits"
	"sync"
)

// Buffer pool for the wall-clock hot paths (spill encode, frame
// append, merge victims, shuffle staging). A mutex-guarded
// size-classed freelist rather than sync.Pool: Put of a []byte into a
// sync.Pool boxes the slice header (one allocation per recycle),
// which would defeat the 0 allocs/op contract the allocation
// regression tests enforce. Pooling is wall-clock-only by
// construction — a recycled buffer is returned with length 0 and its
// contents are always written before they are read, and every
// virtual-time charge in the simulator is computed from data sizes,
// never from buffer identity — so Reports stay DeepEqual no matter
// how the pool is hit (the engine determinism tests check exactly
// this).
const (
	poolMinBits     = 10 // smallest class: 1 KiB
	poolMaxBits     = 26 // largest pooled buffer: 64 MiB
	poolClasses     = poolMaxBits - poolMinBits + 1
	poolPerClassCap = 32 // buffers retained per class; excess is dropped to the GC
)

type bufPool struct {
	mu      sync.Mutex
	classes [poolClasses][][]byte
}

var pool bufPool

// classFor returns the smallest size class holding n bytes, or -1 if
// n exceeds the largest class.
func classFor(n int) int {
	if n <= 1<<poolMinBits {
		return 0
	}
	c := bits.Len(uint(n-1)) - poolMinBits
	if c >= poolClasses {
		return -1
	}
	return c
}

// classOf returns the largest size class a buffer of capacity c fully
// covers, or -1 if c is below the smallest class.
func classOf(c int) int {
	if c < 1<<poolMinBits {
		return -1
	}
	k := bits.Len(uint(c)) - 1 - poolMinBits
	if k >= poolClasses {
		k = poolClasses - 1
	}
	return k
}

// Get returns a zero-length buffer with capacity at least n, recycled
// from the pool when one is available. Callers append into it and
// hand it back with Put once nothing aliases it.
func Get(n int) []byte {
	c := classFor(n)
	if c < 0 {
		return make([]byte, 0, n) // beyond the largest class: unpooled
	}
	pool.mu.Lock()
	if l := pool.classes[c]; len(l) > 0 {
		b := l[len(l)-1]
		l[len(l)-1] = nil
		pool.classes[c] = l[:len(l)-1]
		pool.mu.Unlock()
		return b[:0]
	}
	pool.mu.Unlock()
	return make([]byte, 0, 1<<(uint(c)+poolMinBits))
}

// collectCap bounds the buffer GetCollect takes up front, so a small
// chunk under a huge B_m does not pin a huge buffer.
const collectCap = 16 << 20

// GetCollect returns a map task's pooled collect buffer for a B_m
// budget of budget bytes: the largest size class within the budget,
// capped at collectCap. Rounding down keeps a task's buffer within
// B_m — every map task in flight holds one, and rounding up would
// nearly double that for budgets just past a class. Output that
// outgrows the buffer grows it by append; that happens only within
// one class of B_m, where the collector is about to spill anyway.
// The collector hands the buffer back with Put when it finishes.
func GetCollect(budget int64) []byte {
	n := int(min(budget, collectCap))
	if n <= 1<<poolMinBits {
		return Get(n)
	}
	return Get(1 << (bits.Len(uint(n)) - 1))
}

// Put recycles a buffer for a future Get. The caller must not retain
// any alias of b (including sub-slices stored elsewhere); Put of a
// still-referenced buffer is the classic recycled-buffer corruption
// bug, so call sites hand buffers back only after the data has been
// copied out (into a storage file or a new encoded buffer) or
// consumed. Putting nil or a tiny buffer is a no-op; classes keep at
// most poolPerClassCap buffers and drop the rest to the GC.
func Put(b []byte) {
	c := classOf(cap(b))
	if c < 0 {
		return
	}
	pool.mu.Lock()
	if l := pool.classes[c]; len(l) < poolPerClassCap {
		if l == nil {
			l = make([][]byte, 0, poolPerClassCap)
		}
		pool.classes[c] = append(l, b)
	}
	pool.mu.Unlock()
}
