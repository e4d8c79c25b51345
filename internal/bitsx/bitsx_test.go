package bitsx

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestIsPow2(t *testing.T) {
	cases := []struct {
		v    int
		want bool
	}{
		{0, false}, {1, true}, {2, true}, {3, false}, {4, true},
		{6, false}, {8, true}, {1024, true}, {1023, false}, {-4, false},
	}
	for _, c := range cases {
		if got := IsPow2(c.v); got != c.want {
			t.Errorf("IsPow2(%d) = %v, want %v", c.v, got, c.want)
		}
	}
}

func TestLog2(t *testing.T) {
	for i := 0; i < 30; i++ {
		if got := Log2(1 << i); got != i {
			t.Errorf("Log2(%d) = %d, want %d", 1<<i, got, i)
		}
	}
}

func TestLog2PanicsOnNonPow2(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Log2(12) did not panic")
		}
	}()
	Log2(12)
}

func TestTM(t *testing.T) {
	cases := []struct{ x, m, want int }{
		{0b1101, 4, 0b01},
		{0b1101, 8, 0b101},
		{0b1101, 16, 0b1101},
		{255, 2, 1},
		{256, 2, 0},
		{7, 1, 0},
	}
	for _, c := range cases {
		if got := TM(c.x, c.m); got != c.want {
			t.Errorf("TM(%d, %d) = %d, want %d", c.x, c.m, got, c.want)
		}
	}
}

// T_M is a homomorphism for xor: T_M(a^b) = T_M(a) ^ T_M(b). The proof of
// Theorem 1 relies on this.
func TestTMXorHomomorphism(t *testing.T) {
	f := func(a, b uint16, mexp uint8) bool {
		m := 1 << (mexp % 12)
		return TM(int(a)^int(b), m) == TM(int(a), m)^TM(int(b), m)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// T_M(T_M(a) ^ T_M(b)) = T_M(a ^ b): truncation can be applied early.
func TestTMIdempotentComposition(t *testing.T) {
	f := func(a, b uint16, mexp uint8) bool {
		m := 1 << (mexp % 12)
		return TM(TM(int(a), m)^TM(int(b), m), m) == TM(int(a)^int(b), m)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Lemma 1.1: Z_M [+] k = Z_M for any 0 <= k <= M-1.
func TestLemma11(t *testing.T) {
	for _, m := range []int{1, 2, 4, 8, 16, 64, 256} {
		for k := 0; k < m; k++ {
			got := XorSet(k, ZM(m))
			if !IsZM(got, m) {
				t.Fatalf("Z_%d [+] %d is not Z_%d: %v", m, k, m, got)
			}
		}
	}
}

// Example 2 of the paper: Z_8 [+] 3 = {3,2,1,0,7,6,5,4}.
func TestLemma11PaperExample(t *testing.T) {
	got := XorSet(3, ZM(8))
	want := []int{3, 2, 1, 0, 7, 6, 5, 4}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Z_8 [+] 3 = %v, want %v", got, want)
		}
	}
}

// Lemma 4.1: {0..w-1} [+] (a*w+b) = {a*w .. (a+1)*w - 1} as a set.
func TestLemma41(t *testing.T) {
	for _, w := range []int{1, 2, 4, 8, 32} {
		for a := 0; a < 5; a++ {
			for b := 0; b < w; b++ {
				got := XorInterval(w, a*w+b)
				sort.Ints(got)
				for i := 0; i < w; i++ {
					if got[i] != a*w+i {
						t.Fatalf("W[+]%d with w=%d: got %v", a*w+b, w, got)
					}
				}
			}
		}
	}
}

func TestLemma41Property(t *testing.T) {
	f := func(wexp uint8, l uint16) bool {
		w := 1 << (wexp % 10)
		got := XorInterval(w, int(l))
		sort.Ints(got)
		a := IntervalOf(int(l), w)
		for i := 0; i < w; i++ {
			if got[i] != a*w+i {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestXorSets(t *testing.T) {
	// Paper definition example: X2 = 2, Y2 = {0,1,2,3} => {2,3,0,1}.
	got := XorSets([]int{2}, []int{0, 1, 2, 3})
	sort.Ints(got)
	want := []int{0, 1, 2, 3}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("XorSets = %v, want %v", got, want)
		}
	}
	// Multiset semantics: |a| * |b| outputs.
	got = XorSets([]int{0, 1}, []int{0, 1})
	if len(got) != 4 {
		t.Fatalf("XorSets multiset size = %d, want 4", len(got))
	}
}

func TestHistogram(t *testing.T) {
	h := Histogram([]int{0, 1, 1, 3, 3, 3}, 4)
	want := []int{1, 2, 0, 3}
	for i := range want {
		if h[i] != want[i] {
			t.Fatalf("Histogram = %v, want %v", h, want)
		}
	}
}

func TestMaxMinCeil(t *testing.T) {
	if CeilDiv(7, 2) != 4 || CeilDiv(8, 2) != 4 || CeilDiv(1, 32) != 1 || CeilDiv(0, 4) != 0 {
		t.Error("CeilDiv failed")
	}
}

func TestBinary(t *testing.T) {
	cases := []struct {
		x, n int
		want string
	}{
		{5, 4, "0101"}, {0, 3, "000"}, {7, 3, "111"}, {13, 4, "1101"}, {1, 1, "1"},
	}
	for _, c := range cases {
		if got := Binary(c.x, c.n); got != c.want {
			t.Errorf("Binary(%d,%d) = %q, want %q", c.x, c.n, got, c.want)
		}
	}
}

func TestIntervalOf(t *testing.T) {
	if IntervalOf(0, 4) != 0 || IntervalOf(3, 4) != 0 || IntervalOf(4, 4) != 1 || IntervalOf(15, 4) != 3 {
		t.Error("IntervalOf failed")
	}
}

func TestIsZMRejects(t *testing.T) {
	if IsZM([]int{0, 1, 2}, 4) {
		t.Error("short slice accepted")
	}
	if IsZM([]int{0, 1, 1, 3}, 4) {
		t.Error("duplicate accepted")
	}
	if IsZM([]int{0, 1, 2, 4}, 4) {
		t.Error("out-of-range accepted")
	}
	if !IsZM([]int{3, 1, 0, 2}, 4) {
		t.Error("valid permutation rejected")
	}
}

// Xor of two full Z_M multisets: every device appears exactly M times.
func TestXorSetsUniform(t *testing.T) {
	for _, m := range []int{2, 4, 16} {
		h := Histogram(XorSets(ZM(m), ZM(m)), m)
		for z, c := range h {
			if c != m {
				t.Fatalf("m=%d device %d count %d, want %d", m, z, c, m)
			}
		}
	}
}

func BenchmarkTMOps(b *testing.B) {
	r := rand.New(rand.NewSource(1))
	xs := make([]int, 1024)
	for i := range xs {
		xs[i] = r.Intn(1 << 20)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = TM(xs[i%1024], 64)
	}
}

// The paper's exclusive-or on sets and the counting around it, which only
// the lemma checks use.

// XorSet returns { x ^ y : y in set }. It implements the paper's
// integer-by-set exclusive-or X [+] Y.
func XorSet(x int, set []int) []int {
	out := make([]int, len(set))
	for i, y := range set {
		out[i] = x ^ y
	}
	return out
}

// XorSets returns { x ^ y : x in a, y in b }, the set-by-set exclusive-or
// of the paper, with multiplicity (the result is a multiset: duplicates are
// preserved because load analysis needs multiplicities).
func XorSets(a, b []int) []int {
	out := make([]int, 0, len(a)*len(b))
	for _, x := range a {
		for _, y := range b {
			out = append(out, x^y)
		}
	}
	return out
}

// ZM returns the set Z_M = {0, 1, ..., m-1}.
func ZM(m int) []int {
	out := make([]int, m)
	for i := range out {
		out[i] = i
	}
	return out
}

// IsZM reports whether set is a permutation of Z_M (Lemma 1.1 asserts
// Z_M [+] k = Z_M for 0 <= k <= M-1; tests use IsZM to verify it).
func IsZM(set []int, m int) bool {
	if len(set) != m {
		return false
	}
	seen := make([]bool, m)
	for _, v := range set {
		if v < 0 || v >= m || seen[v] {
			return false
		}
		seen[v] = true
	}
	return true
}

// XorInterval implements Lemma 4.1: for W = {0..w-1} (w a power of two) and
// L = a*w + b with 0 <= b < w, W [+] L = {a*w, a*w+1, ..., (a+1)*w - 1}.
// It returns that interval as a slice. The function computes W [+] L
// directly; the lemma guarantees the result is exactly the interval.
func XorInterval(w, l int) []int {
	if !IsPow2(w) {
		panic(fmt.Sprintf("bitsx: XorInterval with non-power-of-two w=%d", w))
	}
	out := make([]int, w)
	for i := 0; i < w; i++ {
		out[i] = i ^ l
	}
	return out
}

// IntervalOf returns the index of the half-open interval [i*d, (i+1)*d)
// that contains v, for interval size d. It panics if d <= 0.
func IntervalOf(v, d int) int {
	if d <= 0 {
		panic(fmt.Sprintf("bitsx: IntervalOf with non-positive interval size %d", d))
	}
	return v / d
}

// Histogram counts occurrences of each value in vals over the range
// [0, m). Values outside the range panic: device numbers produced by a
// correct allocator are always in range, so an out-of-range value is a bug.
func Histogram(vals []int, m int) []int {
	h := make([]int, m)
	for _, v := range vals {
		h[v]++
	}
	return h
}
