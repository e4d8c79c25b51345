package mempool

import (
	"fmt"
	"runtime/debug"
	"testing"
	"unsafe"
)

// raceEnabled reports whether the test binary was built with -race,
// where sync.Pool drops a quarter of its Puts and allocation counts
// stop being exact.
func raceEnabled() bool {
	bi, _ := debug.ReadBuildInfo()
	for _, s := range bi.Settings {
		if s.Key == "-race" {
			return s.Value == "true"
		}
	}
	return false
}

func TestClassFor(t *testing.T) {
	cases := []struct{ n, class int }{
		{0, 0}, {1, 0}, {64, 0}, {65, 1}, {128, 1}, {129, 2},
		{1 << 24, numClasses - 1}, {1<<24 + 1, -1},
	}
	for _, c := range cases {
		if got := classFor(c.n); got != c.class {
			t.Errorf("classFor(%d) = %d, want %d", c.n, got, c.class)
		}
	}
}

func TestGetPutRecycles(t *testing.T) {
	p := NewBytesPool("test.bytes")
	b := p.Get(100)
	if len(b) != 100 || cap(b) != 128 {
		t.Fatalf("Get(100): len=%d cap=%d, want 100/128", len(b), cap(b))
	}
	p.Put(b)
	// sync.Pool deliberately drops a fraction of Puts under the race
	// detector, so retry until a recycled slab is observed.
	recycled := false
	for i := 0; i < 50 && !recycled; i++ {
		b2 := p.Get(120)
		if cap(b2) != 128 {
			t.Fatalf("Get(120): cap=%d, want 128", cap(b2))
		}
		recycled = p.Stats().Gets > 0
		p.Put(b2)
	}
	st := p.Stats()
	if !recycled {
		t.Fatalf("stats = %+v, no Get ever recycled", st)
	}
	if st.Misses < 1 || st.Gets != 1 || st.Puts < 2 {
		t.Fatalf("stats = %+v, want ≥1 miss, 1 get, ≥2 puts", st)
	}
	if st.RecycledBytes != 128 {
		t.Fatalf("recycled bytes = %d, want 128", st.RecycledBytes)
	}
}

// A warm Get/Put pair allocates nothing: the slab recycles through its
// class and the *[]T it sits behind recycles through the box pool. The
// counters read exactly what they read when Put boxed afresh each time.
func TestWarmGetPutAllocatesNothing(t *testing.T) {
	if raceEnabled() {
		t.Skip("sync.Pool drops Puts under -race")
	}
	bytesPool := NewBytesPool("test.warm.bytes")
	stringPool := NewSlicePool[string]("test.warm.strings")
	bytesPool.Put(bytesPool.Get(300))
	stringPool.Put(stringPool.Get(300))
	const runs = 100
	if n := testing.AllocsPerRun(runs, func() { bytesPool.Put(bytesPool.Get(300)) }); n != 0 {
		t.Errorf("bytes pool: %v allocs per warm Get/Put, want 0", n)
	}
	if n := testing.AllocsPerRun(runs, func() { stringPool.Put(stringPool.Get(300)) }); n != 0 {
		t.Errorf("string pool: %v allocs per warm Get/Put, want 0", n)
	}
	// The counters still account for every call (one cold pair, then
	// AllocsPerRun's warm-up call plus its runs) and for the bytes each
	// hit recycled. AllocsPerRun moves the goroutine to another P, which
	// can cost one more miss, so the hit/miss split is not pinned.
	for name, st := range map[string]struct {
		Stats
		elem uint64
	}{"bytes": {bytesPool.Stats(), 1}, "strings": {stringPool.Stats(), 16}} {
		if st.Gets+st.Misses != runs+2 || st.Puts != runs+2 || st.Gets < runs || st.RecycledBytes != st.Gets*512*st.elem {
			t.Errorf("%s pool stats = %+v", name, st.Stats)
		}
	}
}

func TestPutForeignCapDropped(t *testing.T) {
	p := NewBytesPool("test.foreign")
	p.Put(make([]byte, 100)) // cap 100: not a class size
	if st := p.Stats(); st.Drops != 1 || st.Puts != 0 {
		t.Fatalf("stats = %+v, want 1 drop, 0 puts", st)
	}
}

func TestOversizeBypassesPool(t *testing.T) {
	p := NewBytesPool("test.oversize")
	b := p.Get(1<<24 + 1)
	if len(b) != 1<<24+1 {
		t.Fatalf("oversize len = %d", len(b))
	}
	if st := p.Stats(); st.Oversize != 1 {
		t.Fatalf("stats = %+v, want 1 oversize", st)
	}
}

func TestNilPoolPassThrough(t *testing.T) {
	var p *SlicePool[string]
	s := p.Get(10)
	if len(s) != 10 {
		t.Fatalf("nil pool Get(10) len = %d", len(s))
	}
	p.Put(s) // must not panic
}

func TestPointerPoolClearsOnPut(t *testing.T) {
	p := NewSlicePool[string]("test.strings")
	s := p.Get(64)
	for i := range s {
		s[i] = "stale"
	}
	p.Put(s)
	s2 := p.Get(64)
	for i, v := range s2 {
		if v != "" {
			t.Fatalf("slot %d not cleared: %q", i, v)
		}
	}
}

func TestAppendOneGrowsThroughPool(t *testing.T) {
	p := NewSlicePool[int]("test.appendone")
	var s []int
	for i := 0; i < 1000; i++ {
		s = p.AppendOne(s, i)
	}
	if len(s) != 1000 || cap(s) != 1024 {
		t.Fatalf("len=%d cap=%d, want 1000/1024", len(s), cap(s))
	}
	for i, v := range s {
		if v != i {
			t.Fatalf("s[%d] = %d after growth", i, v)
		}
	}
	st := p.Stats()
	if st.Puts == 0 {
		t.Fatalf("growth never returned outgrown slabs: %+v", st)
	}
	// Nil pool degrades to plain append.
	var np *SlicePool[int]
	if s2 := np.AppendOne(nil, 7); len(s2) != 1 || s2[0] != 7 {
		t.Fatalf("nil-pool AppendOne = %v", s2)
	}
}

func TestRecordBuilderOwned(t *testing.T) {
	b := NewRecordBuilder(false)
	var recs [][]string
	for i := 0; i < 1000; i++ {
		r := b.Fields(3)
		for j := range r {
			r[j] = b.Bytes([]byte(fmt.Sprintf("val-%d-%d", i, j)))
		}
		recs = append(recs, r)
	}
	b.Release() // a no-op: records stay valid
	for i, r := range recs {
		for j := range r {
			want := fmt.Sprintf("val-%d-%d", i, j)
			if r[j] != want {
				t.Fatalf("rec %d field %d = %q, want %q", i, j, r[j], want)
			}
		}
	}
}

// buildReserved fills recs with three-field records of value through a
// builder reserved for exactly them, then builds extra one-field
// records past the reservation.
func buildReserved(recs [][]string, value []byte, extra int) {
	b := NewRecordBuilder(false)
	b.Reserve(3*len(recs), 3*len(recs)*len(value))
	for i := range recs {
		r := b.Fields(3)
		for j := range r {
			r[j] = b.Bytes(value)
		}
		recs[i] = r
	}
	for i := 0; i < extra; i++ {
		b.Fields(1)[0] = b.Bytes(value)
	}
}

// A builder reserved for what it builds makes exactly two chunks,
// one of field slots and one of bytes, for one record or a thousand; past
// the reservation each record and string is an allocation of its own.
func TestReservedBuilderMakesTwoChunks(t *testing.T) {
	value := []byte("value-0123")
	for _, n := range []int{1, 6, 1000} {
		recs := make([][]string, n)
		if got := testing.AllocsPerRun(20, func() { buildReserved(recs, value, 0) }); got != 2 {
			t.Errorf("%d records: %.0f allocations, want 2", n, got)
		}
		if got := testing.AllocsPerRun(20, func() { buildReserved(recs, value, 1) }); got != 4 {
			t.Errorf("%d records and one past the reservation: %.0f allocations, want 4", n, got)
		}
		for i, r := range recs {
			if len(r) != 3 || cap(r) != 3 || r[0] != string(value) || r[2] != string(value) {
				t.Fatalf("%d records: record %d = %q (cap %d)", n, i, r, cap(r))
			}
		}
	}
}

func TestBuilderFieldsCapRestricted(t *testing.T) {
	b := NewRecordBuilder(false)
	b.Reserve(4, 0) // both records in one chunk
	r1 := b.Fields(2)
	r2 := b.Fields(2)
	r1 = append(r1, "overflow") // must not clobber r2
	_ = r1
	if r2[0] != "" || r2[1] != "" {
		t.Fatalf("append on r1 clobbered r2: %v", r2)
	}
}

func TestReportIncludesRegisteredPools(t *testing.T) {
	name := "test.report"
	p := NewBytesPool(name)
	p.Put(p.Get(64))
	found := false
	for _, r := range Report() {
		if r.Name == name {
			found = true
			if r.Puts != 1 {
				t.Fatalf("report row = %+v", r)
			}
		}
	}
	if !found {
		t.Fatalf("pool %q missing from Report()", name)
	}
}

// TestSetPoisonScribblesReleasedByteSlabs pins the test seam: poisoned, a
// byte slab is overwritten end to end on Put, so a string that aliases it
// stops reading as what it was; unpoisoned, and for pointerful pools,
// Put behaves as before.
func TestSetPoisonScribblesReleasedByteSlabs(t *testing.T) {
	p := NewBytesPool("test.poison")
	put := func() string {
		s := p.Get(100)
		copy(s, "record")
		alias := unsafe.String(&s[0], 6)
		p.Put(s)
		return alias
	}
	if got := put(); got != "record" {
		t.Fatalf("unpoisoned Put rewrote the slab: %q", got)
	}
	if was := SetPoison(true); was {
		t.Fatal("poison was on before the test set it")
	}
	defer SetPoison(false)
	if got := put(); got != "\xdb\xdb\xdb\xdb\xdb\xdb" {
		t.Fatalf("poisoned Put left %q readable", got)
	}
	strs := NewSlicePool[string]("test.poison.strings")
	s := strs.Get(4)
	s[0] = "kept"
	strs.Put(s)
	if s[0] != "" {
		t.Fatalf("a pointerful slab is cleared, not scribbled: %q", s[0])
	}
	if was := SetPoison(false); !was {
		t.Fatal("SetPoison did not report the previous setting")
	}
}
