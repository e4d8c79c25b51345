package query

import (
	"math/rand"
	"reflect"
	"testing"

	"fxdist/internal/decluster"
	"fxdist/internal/field"
)

func TestQueryConstruction(t *testing.T) {
	q := New([]int{3, Unspecified, 0})
	if q.NumUnspecified() != 1 {
		t.Errorf("NumUnspecified = %d", q.NumUnspecified())
	}
	if got := q.UnspecifiedFields(); len(got) != 1 || got[0] != 1 {
		t.Errorf("UnspecifiedFields = %v", got)
	}
	if q.String() != "<3,*,0>" {
		t.Errorf("String = %q", q.String())
	}
	all := All(3)
	if all.NumUnspecified() != 3 {
		t.Error("All not fully unspecified")
	}
	ex := Exact([]int{1, 2, 3})
	if ex.NumUnspecified() != 0 {
		t.Error("Exact has unspecified fields")
	}
}

func TestValidate(t *testing.T) {
	fs := decluster.MustFileSystem([]int{4, 8}, 4)
	if err := New([]int{3, Unspecified}).Validate(fs); err != nil {
		t.Errorf("valid query rejected: %v", err)
	}
	if err := New([]int{3}).Validate(fs); err == nil {
		t.Error("wrong arity accepted")
	}
	if err := New([]int{4, 0}).Validate(fs); err == nil {
		t.Error("out-of-domain value accepted")
	}
	if err := New([]int{-2, 0}).Validate(fs); err == nil {
		t.Error("negative non-sentinel value accepted")
	}
}

func TestNumQualifiedAndEnumeration(t *testing.T) {
	fs := decluster.MustFileSystem([]int{4, 8, 2}, 4)
	q := New([]int{2, Unspecified, Unspecified})
	if got := q.NumQualified(fs); got != 16 {
		t.Errorf("NumQualified = %d, want 16", got)
	}
	count := 0
	q.EachQualified(fs, func(b []int) {
		if !q.Matches(b) {
			t.Fatalf("enumerated non-matching bucket %v", b)
		}
		count++
	})
	if count != 16 {
		t.Errorf("enumerated %d buckets, want 16", count)
	}
}

func TestMatches(t *testing.T) {
	q := New([]int{2, Unspecified})
	if !q.Matches([]int{2, 7}) {
		t.Error("matching bucket rejected")
	}
	if q.Matches([]int{3, 7}) {
		t.Error("non-matching bucket accepted")
	}
}

// Loads must agree with counting over a manual scan, and must sum to |R(q)|.
func TestLoadsAgainstManualScan(t *testing.T) {
	fs := decluster.MustFileSystem([]int{4, 8, 2}, 8)
	fx := decluster.MustFX(fs)
	q := New([]int{Unspecified, 5, Unspecified})
	loads := Loads(fx, q)
	manual := make([]int, fs.M)
	fs.EachBucket(func(b []int) {
		if q.Matches(b) {
			manual[fx.Device(b)]++
		}
	})
	if !reflect.DeepEqual(loads, manual) {
		t.Errorf("Loads = %v, manual = %v", loads, manual)
	}
	sum := 0
	for _, v := range loads {
		sum += v
	}
	if sum != q.NumQualified(fs) {
		t.Errorf("loads sum %d != |R(q)| %d", sum, q.NumQualified(fs))
	}
}

// The paper's §3 example: f = (2,8), M = 4, first field specified as 1,
// second unspecified: every device holds exactly 2 qualified buckets.
func TestSection3Example(t *testing.T) {
	fs := decluster.MustFileSystem([]int{2, 8}, 4)
	fx, err := decluster.NewBasicFX(fs)
	if err != nil {
		t.Fatal(err)
	}
	loads := Loads(fx, New([]int{1, Unspecified}))
	for dev, v := range loads {
		if v != 2 {
			t.Errorf("device %d holds %d qualified buckets, want 2", dev, v)
		}
	}
	if LargestLoad(fx, New([]int{1, Unspecified})) != 2 {
		t.Error("LargestLoad wrong")
	}
}

func TestLoadsPanicsOnInvalidQuery(t *testing.T) {
	fs := decluster.MustFileSystem([]int{2, 8}, 4)
	fx := decluster.MustFX(fs)
	defer func() {
		if recover() == nil {
			t.Fatal("Loads with invalid query did not panic")
		}
	}()
	Loads(fx, New([]int{5, Unspecified}))
}

// Inverse mapping must produce exactly the qualified buckets on each
// device, across allocators, query shapes and devices.
func TestInverseMappingMatchesForwardScan(t *testing.T) {
	fs := decluster.MustFileSystem([]int{4, 8, 2, 4}, 8)
	allocs := []decluster.GroupAllocator{
		decluster.MustFX(fs),
		decluster.MustFX(fs, field.WithKinds([]field.Kind{field.I, field.I, field.I, field.I})),
		decluster.NewModulo(fs),
		decluster.MustGDM(fs, []int{2, 3, 5, 7}),
	}
	queries := []Query{
		All(4),
		New([]int{1, Unspecified, Unspecified, 2}),
		New([]int{Unspecified, 3, 1, Unspecified}),
		Exact([]int{3, 7, 1, 0}),
		New([]int{Unspecified, Unspecified, Unspecified, 1}),
	}
	for _, a := range allocs {
		im := NewInverseMapper(a)
		for _, q := range queries {
			// Forward: scan R(q), group by device.
			want := make(map[int]map[[4]int]bool)
			q.EachQualified(fs, func(b []int) {
				d := a.Device(b)
				if want[d] == nil {
					want[d] = map[[4]int]bool{}
				}
				want[d][[4]int{b[0], b[1], b[2], b[3]}] = true
			})
			for dev := 0; dev < fs.M; dev++ {
				got := map[[4]int]bool{}
				im.EachOnDevice(q, dev, func(b []int) {
					key := [4]int{b[0], b[1], b[2], b[3]}
					if got[key] {
						t.Fatalf("%s %v dev %d: duplicate bucket %v", a.Name(), q, dev, b)
					}
					got[key] = true
				})
				if len(got) != len(want[dev]) {
					t.Fatalf("%s %v dev %d: %d buckets, want %d", a.Name(), q, dev, len(got), len(want[dev]))
				}
				for b := range got {
					if !want[dev][b] {
						t.Fatalf("%s %v dev %d: spurious bucket %v", a.Name(), q, dev, b)
					}
				}
			}
		}
	}
}

// onDevice collects the buckets of R(q) on device dev as copied slices.
func onDevice(im *InverseMapper, q Query, dev int) [][]int {
	var out [][]int
	im.EachOnDevice(q, dev, func(b []int) {
		out = append(out, append([]int(nil), b...))
	})
	return out
}

func TestInverseMapperCountAndCollect(t *testing.T) {
	fs := decluster.MustFileSystem([]int{4, 8}, 4)
	fx := decluster.MustFX(fs)
	im := NewInverseMapper(fx)
	q := New([]int{Unspecified, Unspecified})
	total := 0
	for dev := 0; dev < fs.M; dev++ {
		c := im.CountOnDevice(q, dev)
		if got := len(onDevice(im, q, dev)); got != c {
			t.Fatalf("OnDevice len %d != CountOnDevice %d", got, c)
		}
		total += c
	}
	if total != fs.NumBuckets() {
		t.Errorf("inverse map total %d != bucket count %d", total, fs.NumBuckets())
	}
	if im.Allocator() != fx {
		t.Error("Allocator accessor wrong")
	}
}

func TestInverseMapperExactMatch(t *testing.T) {
	fs := decluster.MustFileSystem([]int{4, 8}, 4)
	fx := decluster.MustFX(fs)
	im := NewInverseMapper(fx)
	b := []int{2, 5}
	dev := fx.Device(b)
	q := Exact(b)
	for d := 0; d < fs.M; d++ {
		got := onDevice(im, q, d)
		if d == dev {
			if len(got) != 1 || !reflect.DeepEqual(got[0], b) {
				t.Fatalf("device %d: got %v, want [%v]", d, got, b)
			}
		} else if len(got) != 0 {
			t.Fatalf("device %d: got %v, want none", d, got)
		}
	}
}

// Randomized cross-check between inverse-map counts and Loads.
func TestInverseCountsEqualLoadsRandomized(t *testing.T) {
	r := rand.New(rand.NewSource(42))
	for trial := 0; trial < 25; trial++ {
		nf := 2 + r.Intn(3)
		sizes := make([]int, nf)
		for i := range sizes {
			sizes[i] = 1 << (1 + r.Intn(3))
		}
		m := 1 << (1 + r.Intn(4))
		fs := decluster.MustFileSystem(sizes, m)
		fx := decluster.MustFX(fs)
		im := NewInverseMapper(fx)
		spec := make([]int, nf)
		for i := range spec {
			if r.Intn(2) == 0 {
				spec[i] = Unspecified
			} else {
				spec[i] = r.Intn(sizes[i])
			}
		}
		q := New(spec)
		loads := Loads(fx, q)
		for dev := 0; dev < m; dev++ {
			if got := im.CountOnDevice(q, dev); got != loads[dev] {
				t.Fatalf("sizes=%v m=%d q=%v dev=%d: inverse count %d != load %d",
					sizes, m, q, dev, got, loads[dev])
			}
		}
	}
}

// TestShape pins the query-shape key every report is filed under: one
// byte per field, 's' specified and '*' unspecified, whatever the values.
func TestShape(t *testing.T) {
	u := Unspecified
	cases := []struct {
		q    Query
		want string
	}{
		{New([]int{3, u, 0}), "s*s"},
		{New([]int{u, u, u}), "***"},
		{New([]int{1, 2}), "ss"},
	}
	for _, c := range cases {
		if got := c.q.Shape(); got != c.want {
			t.Errorf("Shape(%v) = %q, want %q", c.q, got, c.want)
		}
	}
}
