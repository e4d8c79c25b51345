// Package bitsx provides the bit-level algebra underlying FX declustering:
// powers of two and the truncation operator T_M. Its tests check the
// paper's Lemmas 1.1 and 4.1 over exclusive-or on sets of integers.
//
// All "sizes" in this package (field sizes, device counts) are powers of
// two, matching the paper's standing assumption for hash-directory files
// and parallel device counts.
package bitsx

import (
	"fmt"
	"math/bits"
)

// IsPow2 reports whether v is a positive power of two.
func IsPow2(v int) bool {
	return v > 0 && v&(v-1) == 0
}

// Log2 returns log2(v) for a power of two v. It panics otherwise; callers
// validate configuration at construction time, so a non-power-of-two here
// is a programming error.
func Log2(v int) int {
	if !IsPow2(v) {
		panic(fmt.Sprintf("bitsx: Log2 of non-power-of-two %d", v))
	}
	return bits.TrailingZeros(uint(v))
}

// TM returns T_M(x): the rightmost log2(M) bits of x. M must be a power of
// two. This is the device projection operator of the paper (§3).
func TM(x, m int) int {
	if !IsPow2(m) {
		panic(fmt.Sprintf("bitsx: TM with non-power-of-two M=%d", m))
	}
	return x & (m - 1)
}

// CeilDiv returns ceil(a/b) for positive b.
func CeilDiv(a, b int) int {
	return (a + b - 1) / b
}

// Binary renders x as an n-bit binary string, e.g. Binary(5, 4) == "0101".
// The paper's tables print field values in binary; the table-reproduction
// CLI uses this to match their formatting.
func Binary(x, n int) string {
	b := make([]byte, n)
	for i := n - 1; i >= 0; i-- {
		if x&1 == 1 {
			b[i] = '1'
		} else {
			b[i] = '0'
		}
		x >>= 1
	}
	return string(b)
}
