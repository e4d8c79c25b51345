package engine

import (
	"time"

	"fxdist/internal/mempool"
	"fxdist/internal/mkhash"
)

// Hot-path slab pools shared by every executor in the process. Per-device
// hit frames are the big ones (they scale with result size); the rest are
// the per-call fan-out scratch that used to be allocated fresh on every
// retrieval. Whether they recycle at all is the pools' own decision
// (mempool.SetEnabled), not the executor's.
var (
	hitsPool    = mempool.NewSlicePool[mkhash.Record]("engine.hits")
	answersPool = mempool.NewSlicePool[Answer]("engine.answers")
	errsPool    = mempool.NewSlicePool[error]("engine.errs")
	dursPool    = mempool.NewSlicePool[time.Duration]("engine.durs")
	callsPool   = mempool.NewSlicePool[*call]("engine.calls")
)

// HitsPool returns the shared pool device adapters draw per-device hit
// frames from — the executor's merge returns every frame it consumes to
// this pool, so adapters and executor must agree on it.
func HitsPool() *mempool.SlicePool[mkhash.Record] { return hitsPool }
