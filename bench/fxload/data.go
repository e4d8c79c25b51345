package main

import (
	"fmt"
	"sort"

	"fxdist/internal/mkhash"
	"fxdist/internal/workload"
)

// relation pins one synthetic relation: its value universes, its bucket
// grid, its size and the device count it is declustered over.
type relation struct {
	spec    workload.RecordSpec
	depths  []int // per-field directory depth; the grid has 2^sum buckets
	records int
	m       int
}

// The two widest fields are Zipf 1.2, so queries that specify them hit
// hot values as a real key column would; the narrow fields are uniform
// and small enough that most value combinations exist. Six fields give
// 64 query shapes, below the plan cache's 256 entries.
var fieldSpecs = []workload.FieldSpec{
	{Name: "f0", Cardinality: 2000, ZipfS: 1.2},
	{Name: "f1", Cardinality: 500, ZipfS: 1.2},
	{Name: "f2", Cardinality: 64},
	{Name: "f3", Cardinality: 24},
	{Name: "f4", Cardinality: 8},
	{Name: "f5", Cardinality: 4},
}

var (
	// readRelation is shared by the three read-only workloads: 60k
	// records over 2^14 buckets, M = 8.
	readRelation = relation{
		spec:    workload.RecordSpec{Fields: fieldSpecs},
		depths:  []int{4, 3, 3, 2, 1, 1},
		records: 60000,
		m:       8,
	}
	// durableRelation is half the size on a quarter of the grid, so a
	// durable bucket holds about seven records and a scan reads pages,
	// not only the index.
	durableRelation = relation{
		spec:    workload.RecordSpec{Fields: fieldSpecs},
		depths:  []int{3, 3, 2, 2, 1, 1},
		records: 30000,
		m:       8,
	}
)

// band is the acceptance filter that turns workload.PartialMatches
// candidates into one workload's query pool: the specification
// probability the candidates are drawn with, and the |R(q)| and answer
// size ranges a candidate must fall in. Bounding both keeps per-query
// cost within a small factor, so a pool's mean cost barely depends on
// the seed.
type band struct {
	p            float64
	minRQ, maxRQ int
	minAns       int
	maxAns       int
	perClient    int // pool size per client
}

var (
	// pointBand: nearly every field specified; a handful of buckets, a
	// handful of records. Fixed per-request cost dominates.
	pointBand = band{p: 0.75, minRQ: 1, maxRQ: 16, minAns: 1, maxAns: 40, perClient: 2048}
	// scanBand: one or two fields specified; hundreds of buckets on
	// every device, around a thousand records back. Per-record cost
	// dominates.
	scanBand = band{p: 0.25, minRQ: 256, maxRQ: 2048, minAns: 400, maxAns: 1200, perClient: 512}
	// midBand: the durable workload's reads.
	midBand = band{p: 0.5, minRQ: 8, maxRQ: 128, minAns: 5, maxAns: 300, perClient: 4096}
)

// query is one pooled read with its oracle answer.
type poolQuery struct {
	pm     mkhash.PartialMatch
	pairs  map[string]string // the same query in the gate's map form
	want   int               // oracle record count
	digest uint64            // oracle content digest (see digestRecords)
	rq     int               // |R(q)|
	shape  string            // 's' per specified field, '*' per free one: the unit of plan caching
}

// subSeed derives independent generator seeds from the run's seed
// (splitmix64), so records, each client's queries and insert keys never
// share a random stream.
func subSeed(seed int64, lane uint64) int64 {
	z := uint64(seed) + (lane+1)*0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return int64((z ^ (z >> 31)) >> 1)
}

// Seed lanes.
const (
	laneRecords = 0
	laneInserts = 1
	laneQueries = 16 // + client
)

// buildFile generates the relation's records from the seed and loads
// them into a multi-key hashed file. It returns the user bytes stored.
func buildFile(rel relation, seed int64) (*mkhash.File, int64, error) {
	file, err := mkhash.New(workload.Schema(rel.spec, rel.depths))
	if err != nil {
		return nil, 0, err
	}
	recs, err := workload.Records(rel.spec, rel.records, subSeed(seed, laneRecords))
	if err != nil {
		return nil, 0, err
	}
	var userBytes int64
	for _, r := range recs {
		if err := file.Insert(r); err != nil {
			return nil, 0, err
		}
		userBytes += recordBytes(r)
	}
	return file, userBytes, nil
}

func recordBytes(r mkhash.Record) int64 {
	n := 0
	for _, v := range r {
		n += len(v)
	}
	return int64(n)
}

// digestStrings is an order-independent digest of a record multiset:
// the wrapping sum of each record's FNV-1a hash. Backends return records
// grouped by device, the oracle in bucket order; equal multisets give
// equal digests without sorting either side.
func digestStrings(recs [][]string) uint64 {
	var sum uint64
	for _, r := range recs {
		sum += hashRecord(r)
	}
	return sum
}

func digestRecords(recs []mkhash.Record) uint64 {
	var sum uint64
	for _, r := range recs {
		sum += hashRecord(r)
	}
	return sum
}

// hashRecord is FNV-1a over the fields, each closed by a zero byte so
// field boundaries count.
func hashRecord(fields []string) uint64 {
	h := uint64(14695981039346656037)
	for _, f := range fields {
		for i := 0; i < len(f); i++ {
			h = (h ^ uint64(f[i])) * 1099511628211
		}
		h *= 1099511628211 // the zero byte: h ^ 0 is h
	}
	return h
}

// buildStreams draws each client's query pool: candidates come from
// workload.PartialMatches in batches, and a candidate is kept when its
// |R(q)| and its oracle answer (mkhash.File.Search, the single-node
// baseline) fall inside the band. Each client has its own candidate
// seed, so streams are independent and identical run to run.
func buildStreams(file *mkhash.File, rel relation, b band, seed int64, clients int) ([][]poolQuery, error) {
	fs1, err := file.FileSystem(1)
	if err != nil {
		return nil, err
	}
	names := file.Schema().Fields
	// A conjunction matches no more records than its rarest specified
	// value holds, so a per-field value histogram rejects most
	// too-small candidates without searching.
	freq := make([]map[string]int, len(names))
	for i := range freq {
		freq[i] = make(map[string]int)
	}
	file.EachBucket(func(_ []int, records []mkhash.Record) {
		for _, rec := range records {
			for i, v := range rec {
				freq[i][v]++
			}
		}
	})
	tooRare := func(pm mkhash.PartialMatch) bool {
		for i, v := range pm {
			if v != nil && freq[i][*v] < b.minAns {
				return true
			}
		}
		return false
	}
	streams := make([][]poolQuery, clients)
	for c := range streams {
		pool := make([]poolQuery, 0, b.perClient)
		for batch := 0; len(pool) < b.perClient; batch++ {
			if batch == 400 {
				return nil, fmt.Errorf("fxload: band %+v accepts too few queries (%d of %d after %d batches)", b, len(pool), b.perClient, batch)
			}
			cands, err := workload.PartialMatches(rel.spec, 1024, b.p, subSeed(seed, laneQueries+uint64(c))+int64(batch))
			if err != nil {
				return nil, err
			}
			for _, pm := range cands {
				bq, err := file.BucketQuery(pm)
				if err != nil {
					return nil, err
				}
				rq := bq.NumQualified(fs1)
				if rq < b.minRQ || rq > b.maxRQ || tooRare(pm) {
					continue
				}
				ans, err := file.Search(pm)
				if err != nil {
					return nil, err
				}
				if len(ans) < b.minAns || len(ans) > b.maxAns {
					continue
				}
				pool = append(pool, poolQuery{
					pm:     pm,
					pairs:  pairsOf(names, pm),
					want:   len(ans),
					digest: digestRecords(ans),
					rq:     rq,
					shape:  bq.Shape(),
				})
				if len(pool) == b.perClient {
					break
				}
			}
		}
		streams[c] = pool
	}
	return streams, nil
}

func pairsOf(names []string, pm mkhash.PartialMatch) map[string]string {
	pairs := make(map[string]string)
	for i, v := range pm {
		if v != nil {
			pairs[names[i]] = *v
		}
	}
	return pairs
}

// distinctShapes returns the first query of every shape in the streams,
// in a fixed order.
func distinctShapes(streams [][]poolQuery) []*poolQuery {
	first := make(map[string]*poolQuery)
	for c := range streams {
		for i := range streams[c] {
			q := &streams[c][i]
			if _, ok := first[q.shape]; !ok {
				first[q.shape] = q
			}
		}
	}
	keys := make([]string, 0, len(first))
	for k := range first {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	out := make([]*poolQuery, len(keys))
	for i, k := range keys {
		out[i] = first[k]
	}
	return out
}

// insertRecord is client c's n-th inserted record. Every field value
// carries an 'x' marker the read universe ("f0-17") never has, so an
// insert can not change any pooled read's answer; field 0 is unique per
// (client, n), so the read-your-write check expects exactly one record.
// The other fields cycle through small ranges so inserts spread over
// the bucket grid, starting from a seed-derived offset. Keys depend on
// (seed, client, n) only: the insert sequence is the same on every run.
func insertRecord(rel relation, seed int64, c, n int) mkhash.Record {
	fields := rel.spec.Fields
	off := int(subSeed(seed, laneInserts) % 1000003)
	rec := make(mkhash.Record, len(fields))
	rec[0] = fmt.Sprintf("%s-x%d-%d", fields[0].Name, c, n)
	for j := 1; j < len(fields); j++ {
		rec[j] = fmt.Sprintf("%s-x%d", fields[j].Name, (off+n*(2*j+1)+c)%fields[j].Cardinality)
	}
	return rec
}

// exactMatch is the query that specifies every field of rec.
func exactMatch(rec mkhash.Record) mkhash.PartialMatch {
	pm := make(mkhash.PartialMatch, len(rec))
	for i := range rec {
		pm[i] = &rec[i]
	}
	return pm
}
