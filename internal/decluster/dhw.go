package decluster

import "math/bits"

// DHW is a latin-square / low-discrepancy declustering scheme in the
// spirit of Doerr, Hebbinghaus and Werth, "Improved Bounds and Schemes
// for the Declustering Problem": each field contributes one row of a
// latin square over Z_M, with the rows built from the van der Corput
// radical-inverse (bit-reversal) permutation — the classic
// low-discrepancy sequence — composed with distinct odd multipliers.
// The per-field contributions fold under addition mod M, so DHW is a
// GroupAllocator like Modulo and GDM and plugs into the exact load
// analysis (package convolve), the per-device inverse mapping (package
// query), and all four cluster backends unchanged.
//
// It is the large-M baseline the FX comparison tables ask for: where
// FX's transformation plan runs out of distinct transforms, a
// low-discrepancy latin square keeps every row a permutation of Z_M,
// so the load stays exactly balanced and per-query deviations grow
// only polylogarithmically in M (the Doerr et al. regime).
type DHW struct {
	fs FileSystem
	// contrib[i][v] caches the row value sigma_i * rho(v) mod M.
	contrib [][]int
}

var _ GroupAllocator = (*DHW)(nil)

// NewDHW builds the latin-square low-discrepancy allocator for fs.
func NewDHW(fs FileSystem) *DHW {
	m := fs.M
	lg := bits.Len(uint(m)) - 1 // log2 M; M is a power of two
	// The row multipliers are successive powers of an odd constant near
	// the golden-section point of M — odd, so each power is invertible
	// mod 2^lg and every row is a permutation of Z_M (a latin square).
	base := int(0.6180339887498949*float64(m)) | 1
	if m <= 2 {
		base = 1
	}
	d := &DHW{fs: fs, contrib: make([][]int, fs.NumFields())}
	sigma := 1
	for i := range d.contrib {
		size := fs.Sizes[i]
		// Fields narrower than M get the radical inverse within their own
		// bit width, so the row's support is {0..F-1} — a generating set
		// of Z_M — rather than a proper subgroup the additive fold could
		// never escape. Fields at least M wide use the full-width inverse,
		// shifted by the high part so they stay exactly uniform over Z_M.
		w := lg
		if size < m {
			w = bits.Len(uint(size)) - 1 // log2 F; sizes are powers of two
		}
		c := make([]int, size)
		for v := range c {
			r := bitrev(v&(1<<w-1), w)
			if w == lg {
				r = (r + v/m) & (m - 1)
			}
			c[v] = (sigma * r) & (m - 1)
		}
		d.contrib[i] = c
		sigma = (sigma * base) & (m - 1)
		sigma |= 1
	}
	return d
}

// bitrev reverses the low n bits of v.
func bitrev(v, n int) int {
	r := 0
	for i := 0; i < n; i++ {
		r = r<<1 | (v & 1)
		v >>= 1
	}
	return r
}

// Device returns the fold of the per-field latin-square rows.
func (d *DHW) Device(bucket []int) int { return deviceOf(d, bucket) }

// FileSystem returns the file system d allocates for.
func (d *DHW) FileSystem() FileSystem { return d.fs }

// Op returns AddGroup.
func (d *DHW) Op() Group { return AddGroup }

// Contribution returns sigma_i * rho(v) mod M.
func (d *DHW) Contribution(fieldIdx, v int) int { return d.contrib[fieldIdx][v] }

// Name identifies the allocator.
func (d *DHW) Name() string { return "DHW-LS" }

// DoerrBound returns the per-device deviation allowance above the
// paper's strict bound ceil(|R(q)|/M) that the Doerr–Hebbinghaus–Werth
// discrepancy results grant a good declustering scheme: O((log M)^(d-1))
// for a query leaving d dimensions unspecified, floored at 1 (no scheme
// beats additive discrepancy 1 on every query). The rescale cutover
// guard refuses to release the old owners while any audited shape's max
// deviation exceeds this.
func DoerrBound(m, freeFields int) int {
	freeFields = max(freeFields, 1)
	lg := bits.Len(uint(m - 1)) // ceil(log2 m)
	lg = max(lg, 1)
	b := 1
	for i := 0; i < freeFields-1; i++ {
		b *= lg
	}
	return b
}
