package field

import (
	"testing"
	"testing/quick"
)

func TestKindString(t *testing.T) {
	cases := []struct {
		k    Kind
		want string
	}{
		{I, "I"}, {U, "U"}, {IU1, "IU1"}, {IU2, "IU2"}, {Kind(9), "Kind(9)"},
	}
	for _, c := range cases {
		if got := c.k.String(); got != c.want {
			t.Errorf("Kind.String() = %q, want %q", got, c.want)
		}
	}
}

func TestNewValidation(t *testing.T) {
	if _, err := New(U, 3, 16); err == nil {
		t.Error("non-power-of-two field size accepted")
	}
	if _, err := New(U, 4, 12); err == nil {
		t.Error("non-power-of-two device count accepted")
	}
	if _, err := New(U, 16, 16); err == nil {
		t.Error("U with F >= M accepted")
	}
	if _, err := New(IU1, 32, 16); err == nil {
		t.Error("IU1 with F > M accepted")
	}
	if _, err := New(I, 64, 16); err != nil {
		t.Errorf("I with F > M rejected: %v", err)
	}
}

// Paper Example 3: f = {0,1,2,3}, M = 16 => U(f) = {0,4,8,12}.
func TestUPaperExample(t *testing.T) {
	fn := MustNew(U, 4, 16)
	want := []int{0, 4, 8, 12}
	got := fn.Image()
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("U image = %v, want %v", got, want)
		}
	}
}

// Paper Example 4: f = {0..7}, M = 16 => IU1(f) = {0,3,6,5,12,15,10,9}.
func TestIU1PaperExample(t *testing.T) {
	fn := MustNew(IU1, 8, 16)
	want := []int{0, 3, 6, 5, 12, 15, 10, 9}
	got := fn.Image()
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("IU1 image = %v, want %v", got, want)
		}
	}
}

// Paper Example 5 uses IU1(f2) = {0,5,10,15} for F = 4, M = 16.
func TestIU1PaperExample5(t *testing.T) {
	fn := MustNew(IU1, 4, 16)
	want := []int{0, 5, 10, 15}
	got := fn.Image()
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("IU1 image = %v, want %v", got, want)
		}
	}
}

// Paper Example 7: f = {0,1}, M = 16 => IU2(f) = {0,13}.
func TestIU2PaperExample(t *testing.T) {
	fn := MustNew(IU2, 2, 16)
	if fn.D1() != 8 || fn.D2() != 4 {
		t.Fatalf("IU2 params d1=%d d2=%d, want 8, 4", fn.D1(), fn.D2())
	}
	want := []int{0, 13}
	got := fn.Image()
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("IU2 image = %v, want %v", got, want)
		}
	}
}

// Example 6 uses U(f2) = {0,2,4,6} and IU1(f3) = {0,5} with M = 8.
func TestExample6Transforms(t *testing.T) {
	u := MustNew(U, 4, 8)
	if got := u.Image(); got[0] != 0 || got[1] != 2 || got[2] != 4 || got[3] != 6 {
		t.Fatalf("U^{8,4} image = %v", got)
	}
	iu1 := MustNew(IU1, 2, 8)
	if got := iu1.Image(); got[0] != 0 || got[1] != 5 {
		t.Fatalf("IU1^{8,2} image = %v", got)
	}
}

// When F*F >= M, IU2 degenerates to IU1 (paper note after Lemma 7.1).
func TestIU2DegeneratesToIU1(t *testing.T) {
	iu2 := MustNew(IU2, 8, 16) // 64 >= 16
	iu1 := MustNew(IU1, 8, 16)
	for l := 0; l < 8; l++ {
		if iu2.Apply(l) != iu1.Apply(l) {
			t.Fatalf("IU2(%d)=%d != IU1(%d)=%d", l, iu2.Apply(l), l, iu1.Apply(l))
		}
	}
	if !iu2.SameMethod(iu1) {
		t.Error("degenerate IU2 not reported as same method as IU1")
	}
	if MustNew(IU2, 2, 16).SameMethod(iu1) {
		t.Error("non-degenerate IU2 reported as same method as IU1")
	}
}

// Lemmas 5.1 and 7.1: IU1 and IU2 are injective into Z_M for any F < M.
func TestInjectivity(t *testing.T) {
	for _, kind := range []Kind{U, IU1, IU2} {
		for mexp := 1; mexp <= 10; mexp++ {
			m := 1 << mexp
			for fexp := 0; fexp < mexp; fexp++ {
				f := 1 << fexp
				fn := MustNew(kind, f, m)
				seen := make(map[int]bool)
				for l := 0; l < f; l++ {
					v := fn.Apply(l)
					if v < 0 || v >= m {
						t.Fatalf("%v(%d) = %d out of Z_%d", fn, l, v, m)
					}
					if seen[v] {
						t.Fatalf("%v not injective at %d", fn, l)
					}
					seen[v] = true
				}
			}
		}
	}
}

// Lemmas 5.4 and 7.2: IU1 and IU2 place exactly one element in each
// interval [i*d1, (i+1)*d1) of Z_M.
func TestOneElementPerInterval(t *testing.T) {
	for _, kind := range []Kind{IU1, IU2} {
		for mexp := 1; mexp <= 10; mexp++ {
			m := 1 << mexp
			for fexp := 0; fexp < mexp; fexp++ {
				f := 1 << fexp
				fn := MustNew(kind, f, m)
				d1 := m / f
				counts := make([]int, f)
				for _, v := range fn.Image() {
					counts[v/d1]++
				}
				for i, c := range counts {
					if c != 1 {
						t.Fatalf("%v: interval %d holds %d elements, want 1", fn, i, c)
					}
				}
			}
		}
	}
}

// U places its image exactly at interval boundaries: U(l) = l*d1.
func TestUSpacingProperty(t *testing.T) {
	f := func(mexp, fexp uint8) bool {
		me := int(mexp%10) + 1
		fe := int(fexp) % me
		m, fsz := 1<<me, 1<<fe
		fn := MustNew(U, fsz, m)
		img := fn.Image()
		for l := 1; l < fsz; l++ {
			if img[l]-img[l-1] != m/fsz {
				return false
			}
		}
		return img[0] == 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestStringers(t *testing.T) {
	fn := MustNew(IU2, 2, 16)
	if got := fn.String(); got != "IU2^{16,2}" {
		t.Errorf("Func.String() = %q", got)
	}
	p := MustPlan([]int{4, 2, 2}, 16, WithKinds([]Kind{I, U, IU2}))
	if got := p.String(); got != "[I U IU2]@M=16" {
		t.Errorf("Plan.String() = %q", got)
	}
}

func TestAccessors(t *testing.T) {
	fn := MustNew(U, 4, 32)
	if fn.Kind() != U || fn.FieldSize() != 4 || fn.Devices() != 32 || fn.D1() != 8 || fn.D2() != 0 {
		t.Errorf("accessors wrong: %+v", fn)
	}
}
