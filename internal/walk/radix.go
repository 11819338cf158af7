package walk

import (
	"math/bits"
	"unsafe"
)

// radixTopBits is the widest digit: 2048 int32 counters stay L1-resident
// beside the data.
const radixTopBits = 11

// radixCounts is radixSort's counter block, one histogram per pass, kept
// in the Scratch so a sort clears the counters it uses, not 32 KB of stack.
type radixCounts [4][1 << radixTopBits]int32

// radixSort LSD-radix-sorts a by a 32-bit key — the high half of a
// packed uint64 (the node of a frontier key), or a whole int32 node id —
// using b as the swap buffer, and returns the slice that holds the
// sorted data: a or b, one array move per pass. maxKey bounds
// the keys, and that range alone picks the digits: the top digit takes
// up to 11 bits, every whole byte below it is a digit of its own. One
// pass below 2^11 keys, two below 2^19, three below 2^27; only reachable
// counters are cleared and summed (256 + 782 for 200k nodes), and all
// histograms are built in ONE read of the input, so p passes touch the
// data p+1 times. Digits sit on byte boundaries rather than at
// ⌈bits/passes⌉ so that every shift is an immediate (see radixPass).
// The sort is stable, which the engine relies on for walker-ID
// determinism.
func radixSort[K uint64 | int32](cnt *radixCounts, a, b []K, maxKey uint32) []K {
	passes := 1 + (max(bits.Len32(maxKey), radixTopBits)-radixTopBits+7)/8
	top := maxKey>>(8*(passes-1)) + 1 // reachable values of the top digit
	radixCount(cnt, a, passes, top)
	b = b[:len(a)]
	for p := 0; p < passes-1; p++ {
		radixPass(&cnt[p], a, b, p, 256)
		a, b = b, a
	}
	radixPass(&cnt[passes-1], a, b, passes-1, top)
	return b
}

// radixCount builds the histograms of all digits — passes-1 bytes, then
// a top digit below top — in one read of a. Like radixPass these loops
// are issue-bound: inlined into radixSort they spill their pointers
// (+40%), so both stay out of line.
//
//go:noinline
func radixCount[K uint64 | int32](cnt *radixCounts, a []K, passes int, top uint32) {
	bytes, last := cnt[:passes-1], &cnt[passes-1]
	for p := range bytes {
		clear(bytes[p][:256])
	}
	clear(last[:top])
	for _, k := range a {
		// The key's bit position, a constant in each instantiation: 32
		// in a packed uint64, 0 in an int32 id.
		d := uint32(k >> (8*unsafe.Sizeof(k) - 32))
		for p := range bytes {
			bytes[p][uint8(d)]++
			d >>= 8
		}
		last[d&(1<<radixTopBits-1)]++
	}
}

// radixPass turns the histogram c of digit p (size counters) into
// offsets and moves a into b in the order of that digit. The scatter is
// inlined once per shift: a variable shift is three µops on x86-64, 12%
// of the sort.
//
//go:noinline
func radixPass[K uint64 | int32](c *[1 << radixTopBits]int32, a, b []K, p int, size uint32) {
	sum := int32(0)
	for i, n := range c[:size] {
		c[i] = sum
		sum += n
	}
	var k K
	base, mask := 8*uint(unsafe.Sizeof(k))-32, uint32(1)<<bits.Len32(size-1)-1
	switch p {
	case 0:
		radixScatter(c, a, b, base, mask)
	case 1:
		radixScatter(c, a, b, base+8, mask)
	case 2:
		radixScatter(c, a, b, base+16, mask)
	default:
		radixScatter(c, a, b, base+24, mask)
	}
}

func radixScatter[K uint64 | int32](c *[1 << radixTopBits]int32, a, b []K, shift uint, mask uint32) {
	for _, k := range a {
		d := uint32(k>>shift) & mask
		pos := c[d]
		c[d] = pos + 1
		b[pos] = k
	}
}
