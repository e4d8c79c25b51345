package mkhash

import (
	"fmt"
	"testing"
)

func benchFile(b *testing.B, n int) *File {
	b.Helper()
	f := MustNew(Schema{
		Fields: []string{"make", "model", "year"},
		Depths: []int{3, 5, 3},
	})
	for i := 0; i < n; i++ {
		if err := f.Insert(Record{
			fmt.Sprintf("make%d", i%20),
			fmt.Sprintf("model%d", i%300),
			fmt.Sprintf("%d", 1980+i%12),
		}); err != nil {
			b.Fatal(err)
		}
	}
	f.place()
	return f
}

func BenchmarkInsert(b *testing.B) {
	f := MustNew(Schema{Fields: []string{"a", "b"}, Depths: []int{4, 4}})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := f.Insert(Record{fmt.Sprintf("a%d", i), fmt.Sprintf("b%d", i)}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSearchPartial(b *testing.B) {
	f := benchFile(b, 20000)
	pm, err := f.Spec(map[string]string{"make": "make7"})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := f.Search(pm); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSearchExact(b *testing.B) {
	f := benchFile(b, 20000)
	pm, err := f.Spec(map[string]string{"make": "make7", "model": "model47", "year": "1987"})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := f.Search(pm); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkGrow(b *testing.B) {
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		f := benchFile(b, 5000)
		b.StartTimer()
		if err := f.Grow(1); err != nil {
			b.Fatal(err)
		}
	}
}
