package fxdist

import (
	"time"

	"fxdist/internal/analysis"
	"fxdist/internal/design"
	"fxdist/internal/field"
	"fxdist/internal/mkhash"
	"fxdist/internal/optimal"
	"fxdist/internal/workload"
)

// ResponseRow is one row of a largest-response-size comparison (the shape
// of the paper's Tables 7-9): for queries with K unspecified fields, the
// average largest response size per method and the theoretical optimum.
type ResponseRow = analysis.ResponseRow

// ResponseTable averages the largest response size over all k-element
// unspecified field subsets for each method, for each k in ks. All
// methods must share fs.
func ResponseTable(fs FileSystem, methods []GroupAllocator, ks []int) []ResponseRow {
	return analysis.ResponseTable(fs, methods, ks)
}

// ResponseTimeRow is a ResponseRow expressed in simulated time under a
// device service model.
type ResponseTimeRow = analysis.ResponseTimeRow

// ResponseTimeTable converts the Tables 7-9 bucket counts to simulated
// response times (§5.2.1's composite): perQuery + largest * perBucket.
func ResponseTimeTable(fs FileSystem, methods []GroupAllocator, ks []int,
	perQuery, perBucket time.Duration) []ResponseTimeRow {
	return analysis.ResponseTimeTable(fs, methods, ks, perQuery, perBucket)
}

// ResponseTableExhaustive computes the same rows as ResponseTable by
// enumerating every concrete query, accepting arbitrary Allocators (e.g.
// the MSP table heuristic) whose load vectors are not translation
// invariant. Small grids only: cost is O(C(n,k) * total buckets) per row.
func ResponseTableExhaustive(fs FileSystem, methods []Allocator, ks []int) []ResponseRow {
	return analysis.ResponseTableExhaustive(fs, methods, ks)
}

// OptimalityPoint is one x-position of a probability-of-optimality curve
// (the shape of the paper's Figures 1-4).
type OptimalityPoint = analysis.OptimalityPoint

// OptimalityCurve computes the percentage of partial match queries
// certified strict-optimal for Modulo and FX, for file systems with
// 0..n fields of size smallF (< M) and the rest largeF (>= M). With exact
// set, it also computes the exact percentages by convolution.
func OptimalityCurve(n, m, smallF, largeF int, fam TransformFamily, exact bool) []OptimalityPoint {
	return analysis.OptimalityCurve(n, m, smallF, largeF, fam, exact)
}

// TableSpec describes one of the paper's Tables 7-9; FigureSpec one of
// Figures 1-4. Use the PaperTableN/PaperFigureN constructors to reproduce
// the paper's evaluation.
type (
	TableSpec  = analysis.TableSpec
	FigureSpec = analysis.FigureSpec
)

// PaperTable7 reproduces Table 7: M=32, six fields of size 8, FX with
// I/U/IU1 cycled.
func PaperTable7() TableSpec { return analysis.Table7() }

// PaperTable8 reproduces Table 8: M=64, six fields of size 8.
func PaperTable8() TableSpec { return analysis.Table8() }

// PaperTable9 reproduces Table 9: M=512, fields (8,8,8,16,16,16), FX with
// IU2.
func PaperTable9() TableSpec { return analysis.Table9() }

// PaperFigure1 reproduces Figure 1 (n=6, pairwise F_pF_q >= M, I/U/IU1).
func PaperFigure1() FigureSpec { return analysis.Figure1() }

// PaperFigure2 reproduces Figure 2 (n=10 variant of Figure 1).
func PaperFigure2() FigureSpec { return analysis.Figure2() }

// PaperFigure3 reproduces Figure 3 (n=6, pairwise products < M but triple
// products >= M, I/U/IU2).
func PaperFigure3() FigureSpec { return analysis.Figure3() }

// PaperFigure4 reproduces Figure 4 (n=10 variant of Figure 3).
func PaperFigure4() FigureSpec { return analysis.Figure4() }

// GDM multiplier sets used in the paper's §5.2.1 comparison.
var (
	GDM1Multipliers = []int{2, 3, 5, 7, 11, 13}
	GDM2Multipliers = []int{2, 5, 11, 43, 51, 57}
	GDM3Multipliers = []int{41, 43, 47, 51, 53, 57}
)

// CPU holds per-instruction cycle counts for the §5.2.2 address
// computation cost model.
type CPU = analysis.CPU

// Cycle tables.
var (
	// MC68000 is the cycle table the paper quotes.
	MC68000 = analysis.MC68000
	// I80286 approximates the Intel 80286 the paper mentions.
	I80286 = analysis.I80286
)

// CostComparison is one row of the §5.2.2 comparison.
type CostComparison = analysis.CPUComparison

// CompareCPUCost evaluates the FX (under x's plan), GDM and Modulo
// address-computation instruction mixes on the CPU; the FX row's VsGDM
// reproduces the paper's "about one third of GDM" claim.
func CompareCPUCost(c CPU, x *FX) []CostComparison {
	return analysis.CompareCPU(c, x.Plan())
}

// Workload generation (§5's query model: fields specified independently
// with equal probability).

// FieldSpec describes one synthetic field's value universe.
type FieldSpec = workload.FieldSpec

// RecordSpec describes a synthetic relation.
type RecordSpec = workload.RecordSpec

// GenerateRecords generates n records under the spec, deterministically
// for a seed.
func GenerateRecords(spec RecordSpec, n int, seed int64) ([]Record, error) {
	return workload.Records(spec, n, seed)
}

// GenerateSchema derives a file schema from a record spec and per-field
// directory depths.
func GenerateSchema(spec RecordSpec, depths []int) Schema {
	return workload.Schema(spec, depths)
}

// GeneratePartialMatches generates value-level queries, each field
// specified independently with probability p.
func GeneratePartialMatches(spec RecordSpec, count int, p float64, seed int64) ([]PartialMatch, error) {
	return workload.PartialMatches(spec, count, p, seed)
}

// GenerateBucketQueries generates bucket-level queries against a grid
// with the given field sizes, each field specified independently with
// probability p.
func GenerateBucketQueries(sizes []int, count int, p float64, seed int64) ([]Query, error) {
	return workload.BucketQueries(sizes, count, p, seed)
}

// FieldHash maps a field value to a 64-bit hash.
type FieldHash = mkhash.FieldHash

// Plan introspection: Kinds returns the transformation method assigned to
// each field of the FX allocator.
func Kinds(x *FX) []Kind { return x.Plan().Kinds() }

// WeightedOptimality computes the probability that a random partial match
// query (each field specified independently with probability p, the
// paper's §5 model) is distributed strict-optimally, judged by pred on
// the unspecified field set.
func WeightedOptimality(n int, p float64, pred func(unspec []int) bool) (float64, error) {
	return analysis.WeightedOptimality(n, p, pred)
}

// PlanSearchResult reports an exhaustive transform-assignment search.
type PlanSearchResult = analysis.PlanSearchResult

// SearchBestPlan exhaustively scores every FX transform assignment on fs
// by exact strict-optimality percentage and compares it with the default
// planner. Cost is 4^(small fields) * 2^n convolutions.
func SearchBestPlan(fs FileSystem) (PlanSearchResult, error) {
	return analysis.SearchBestPlan(fs)
}

// GDMSearchResult reports a GDM multiplier search.
type GDMSearchResult = analysis.GDMSearchResult

// SearchGDM scores deterministic pseudo-random odd multiplier sets by
// k-averaged largest response size — the "trial and error" the paper says
// GDM requires.
func SearchGDM(fs FileSystem, k, trials, maxMultiplier int) (GDMSearchResult, error) {
	return analysis.SearchGDM(fs, k, trials, maxMultiplier)
}

// LoadStats summarises one per-device load vector (min/max/mean,
// coefficient of variation, mean/max balance).
type LoadStats = analysis.LoadStats

// LoadStatsOf computes statistics for a load vector (e.g. from Loads).
func LoadStatsOf(loads []int) (LoadStats, error) { return analysis.StatsOf(loads) }

// WorkloadBalance averages the mean/max balance of an allocator over a
// query mix: 1.0 means every query is spread perfectly.
func WorkloadBalance(a GroupAllocator, queries []Query) (float64, error) {
	return analysis.WorkloadBalance(a, queries)
}

// WorkloadTracker accumulates per-field specification frequencies from an
// observed query stream (safe for concurrent use).
type WorkloadTracker = design.Tracker

// NewWorkloadTracker builds a tracker for an n-field file.
func NewWorkloadTracker(nFields int) (*WorkloadTracker, error) {
	return design.NewTracker(nFields)
}

// FileStats summarises a file's per-field distinct-value counts.
type FileStats = design.FileStats

// CollectStats scans a file and counts distinct values per field.
func CollectStats(file *File) FileStats { return design.Collect(file) }

// ExpectedLargestResponse computes the workload-weighted expected largest
// response size of an allocator, with field i specified independently
// with probability probs[i].
func ExpectedLargestResponse(a GroupAllocator, probs []float64) (float64, error) {
	return analysis.ExpectedLargest(a, probs)
}

// MethodRecommendation reports a workload-aware declustering choice.
type MethodRecommendation = analysis.Recommendation

// RecommendMethod scores candidate allocators by expected largest
// response size under the observed specification probabilities.
func RecommendMethod(candidates []GroupAllocator, probs []float64) (MethodRecommendation, error) {
	return analysis.Recommend(candidates, probs)
}

// PSweepPoint is one specification-probability position of a p-sweep.
type PSweepPoint = analysis.PSweepPoint

// PSweep computes the exact strict-optimality probability of FX and
// Modulo as a function of the per-field specification probability —
// generalising the figures' implicit p = 1/2 across the workload
// spectrum.
func PSweep(fs FileSystem, fam TransformFamily, ps []float64) ([]PSweepPoint, error) {
	return analysis.PSweep(fs, fam, ps)
}

// MSweepPoint is one device-count position of an M-sweep.
type MSweepPoint = analysis.MSweepPoint

// MSweep measures exact and certified strict-optimality percentages for
// FX and Modulo as the device count grows over fixed field sizes — the
// regime the paper's conclusion flags as FX's open problem.
func MSweep(sizes []int, ms []int, fam TransformFamily) ([]MSweepPoint, error) {
	return analysis.MSweep(sizes, ms, fam)
}

// OptimalityWitness describes a query class on which an allocator misses
// strict optimality.
type OptimalityWitness = optimal.Witness

// FindWitness returns a minimal-k query class for which a is not strict
// optimal, or ok=false when a is perfect optimal.
func FindWitness(a GroupAllocator) (w OptimalityWitness, ok bool) {
	return optimal.FindWitness(a)
}

// WithRoundRobinPlan forces the paper's Tables 7-9 transform assignment:
// cycling I, U, then the family transform (see WithFamily) over fields
// smaller than M, in field order.
func WithRoundRobinPlan() PlanOption {
	return field.WithStrategy(field.RoundRobin)
}
