package pagestore

import (
	"fmt"
	"path/filepath"
	"testing"

	"fxdist/internal/mempool"
	"fxdist/internal/mkhash"
)

func benchStore(b *testing.B) *Store {
	b.Helper()
	s, err := Open(filepath.Join(b.TempDir(), "bench.log"))
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { s.Close() })
	return s
}

func BenchmarkAppend(b *testing.B) {
	s := benchStore(b)
	rec := mkhash.Record{"part-1234", "supplier-56", "warehouse-7", "active"}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := s.Append(uint32(i%256), rec); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkScan(b *testing.B) {
	s := benchStore(b)
	for i := 0; i < 4096; i++ {
		if err := s.Append(uint32(i%16), mkhash.Record{fmt.Sprintf("v%d", i)}); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n := 0
		if err := s.ScanInto(uint32(i%16), mempool.NewRecordBuilder(false), func(mkhash.Record) error {
			n++
			return nil
		}); err != nil {
			b.Fatal(err)
		}
		if n != 256 {
			b.Fatalf("scanned %d", n)
		}
	}
}

// BenchmarkScanMatching is the durable retrieval's inner loop: a bucket
// stored as one run, a query 1 record in 32 answers, its hits collected
// and built. Allocations must follow the hits, not the records scanned:
// the two exactly-sized chunks of the answer.
func BenchmarkScanMatching(b *testing.B) {
	s := benchStore(b)
	for bucket := uint32(0); bucket < 16; bucket++ {
		var run []mkhash.Record
		for i := 0; i < 256; i++ {
			run = append(run, mkhash.Record{fmt.Sprintf("part-%d", i), fmt.Sprintf("supplier-%d", i%32), "warehouse-7"})
		}
		if err := s.AppendRun(bucket, run); err != nil {
			b.Fatal(err)
		}
	}
	supplier := "supplier-5"
	pm := mkhash.PartialMatch{nil, &supplier, nil}
	b.ReportAllocs()
	b.ResetTimer()
	scanned := 0
	for i := 0; i < b.N; i++ {
		hits := 0
		var found mkhash.Encoded
		n, err := s.AppendMatching(uint32(i%16), pm, &found)
		if err == nil {
			err = found.Build(mempool.NewRecordBuilder(false), func(mkhash.Record) error {
				hits++
				return nil
			})
		}
		found.Release()
		if err != nil || hits != 8 {
			b.Fatalf("%d hits, %v", hits, err)
		}
		scanned += n
	}
	b.ReportMetric(float64(scanned)/float64(b.N), "scanned/op")
}

func BenchmarkOpenRecovery(b *testing.B) {
	path := filepath.Join(b.TempDir(), "recover.log")
	s, err := Open(path)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < 20000; i++ {
		if err := s.Append(uint32(i%64), mkhash.Record{fmt.Sprintf("v%d", i), "x", "y"}); err != nil {
			b.Fatal(err)
		}
	}
	s.Close()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s2, err := Open(path)
		if err != nil {
			b.Fatal(err)
		}
		if s2.Len() != 20000 {
			b.Fatalf("Len = %d", s2.Len())
		}
		s2.Close()
	}
}
