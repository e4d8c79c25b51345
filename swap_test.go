package fxdist

import (
	"context"
	"sync"
	"testing"
	"time"
)

// gatedBackend answers retrievals once release is closed, announcing
// each on entered; the rest of backend is unused here.
type gatedBackend struct {
	backend
	entered chan struct{}
	release chan struct{}
}

func (g *gatedBackend) RetrieveContext(context.Context, PartialMatch) (RetrieveResult, error) {
	g.entered <- struct{}{}
	<-g.release
	return RetrieveResult{}, nil
}

// TestSwapWaitsOnlyForTheReplacedHandle: while a retrieval hangs on the
// serving handle, a swap publishes the new handle at once (new reads
// answer from it without queueing) and returns only when the hung read
// does. Swapping to the handle that already serves returns at once.
func TestSwapWaitsOnlyForTheReplacedHandle(t *testing.T) {
	old := &gatedBackend{entered: make(chan struct{}, 1), release: make(chan struct{})}
	next := &gatedBackend{entered: make(chan struct{}, 1), release: make(chan struct{})}
	close(next.release)
	c := &Cluster{be: old, reads: new(sync.RWMutex)}

	hung := make(chan struct{})
	go func() {
		c.RetrieveContext(context.Background(), PartialMatch{}) //nolint:errcheck // the fake never fails
		close(hung)
	}()
	<-old.entered
	swapped := make(chan struct{})
	go func() {
		c.swap(next)
		close(swapped)
	}()
	for c.backend() != backend(next) {
		time.Sleep(time.Millisecond)
	}
	if _, err := c.RetrieveContext(context.Background(), PartialMatch{}); err != nil {
		t.Fatal(err)
	}
	<-next.entered
	select {
	case <-swapped:
		t.Fatal("swap returned while a read on the replaced handle was in flight")
	default:
	}
	close(old.release)
	<-hung
	<-swapped
	c.swap(next) // already serving: must not wait on anything
}
