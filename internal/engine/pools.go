package engine

import (
	"fxdist/internal/mempool"
	"fxdist/internal/mkhash"
)

// Hot-path slab pools shared by every executor in the process: per-device
// hit frames, which scale with result size, and RetrieveBatch's scratch.
// Whether they recycle is the pools' own decision (mempool.SetEnabled).
var (
	hitsPool  = mempool.NewSlicePool[mkhash.Record]("engine.hits")
	errsPool  = mempool.NewSlicePool[error]("engine.errs")
	callsPool = mempool.NewSlicePool[*call]("engine.calls")
)

// HitsPool returns the shared pool device adapters draw per-device hit
// frames from — the executor's merge returns every frame it consumes to
// this pool, so adapters and executor must agree on it.
func HitsPool() *mempool.SlicePool[mkhash.Record] { return hitsPool }
