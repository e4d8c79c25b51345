package engine

import "sync"

// task is one device's share of a call. The queue holds tasks by value:
// everything a scan needs rides the call, so queueing one allocates
// nothing.
type task struct {
	c   *call
	dev int
}

// pool is a lazily-spawned bounded worker pool. Tasks are queued under a
// mutex; a submit spawns a new worker only while fewer than max are
// running, and workers exit as soon as the queue drains. The pool
// therefore needs no Close: an idle pool holds zero goroutines, yet a
// retrieval burst (or a RetrieveBatch) reuses the same workers across
// every device task instead of spawning one goroutine per device per
// query. The queue keeps its backing array between bursts.
type pool struct {
	max     int
	run     func() // p.drain, bound once: `go p.drain()` would allocate the method value per spawn
	mu      sync.Mutex
	queue   []task
	head    int // queue[head:] is waiting
	workers int
}

func newPool(max int) *pool {
	if max < 1 {
		max = 1
	}
	p := &pool{max: max}
	p.run = p.drain
	return p
}

// submit enqueues t for execution. It never blocks; excess tasks wait in
// the queue until a worker frees up.
func (p *pool) submit(t task) {
	p.mu.Lock()
	if len(p.queue) == cap(p.queue) && p.head > len(p.queue)/2 {
		// Under sustained load the queue never drains: reuse the served
		// prefix instead of growing past it.
		n := copy(p.queue, p.queue[p.head:])
		clear(p.queue[n:])
		p.queue, p.head = p.queue[:n], 0
	}
	p.queue = append(p.queue, t)
	if p.workers < p.max {
		p.workers++
		p.mu.Unlock()
		go p.run()
		return
	}
	p.mu.Unlock()
}

func (p *pool) drain() {
	for {
		p.mu.Lock()
		if p.head == len(p.queue) {
			p.workers--
			p.queue, p.head = p.queue[:0], 0
			p.mu.Unlock()
			return
		}
		t := p.queue[p.head]
		p.queue[p.head] = task{} // the array outlives the call
		p.head++
		p.mu.Unlock()
		t.c.scan(t.dev)
	}
}
