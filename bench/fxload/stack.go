package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"sync"
	"sync/atomic"

	"fxdist"
	"fxdist/client"
	"fxdist/internal/gate"
	"fxdist/internal/mkhash"
)

// stack is one workload's system under test, built in-process from the
// public constructors with shipped defaults. It receives generated
// records and queries only, never the seed or the workload's name.
type stack struct {
	rel     relation
	file    *mkhash.File
	alloc   fxdist.GroupAllocator
	cluster *fxdist.Cluster // the serving cluster: netdist, memory or durable

	// Front door, nil unless the workload goes through it.
	gate    *gate.Gate
	keys    []string
	clients []*client.Client

	// Durable only. DurableCluster does not synchronise its writers
	// against its readers (pagestore.Store's index is a plain map), so
	// the embedder has to: reads share durMu, Insert and Sync take it
	// exclusively. Its cost is part of what a durable caller pays.
	dir       string
	durMu     sync.RWMutex
	userBytes atomic.Int64 // user bytes stored: initial load plus inserts

	closers []func() error
}

// answer is a retrieval's records in whichever form the entry point
// returns them.
type answer struct {
	wire [][]string
	recs []mkhash.Record
}

func (a answer) count() int {
	if a.wire != nil {
		return len(a.wire)
	}
	return len(a.recs)
}

func (a answer) digest() uint64 {
	if a.wire != nil {
		return digestStrings(a.wire)
	}
	return digestRecords(a.recs)
}

// newAllocator builds the FX allocator for the file's grid.
func newAllocator(file *mkhash.File, m int) (fxdist.GroupAllocator, error) {
	fs, err := file.FileSystem(m)
	if err != nil {
		return nil, err
	}
	return fxdist.NewFX(fs)
}

// buildGateStack builds client → HTTP → gate → Cluster over netdist →
// M in-process device servers on loopback TCP, with one keep-alive
// connection and one tenant key per client.
func buildGateStack(file *mkhash.File, rel relation, clients int) (*stack, error) {
	s := &stack{rel: rel, file: file}
	var err error
	if s.alloc, err = newAllocator(file, rel.m); err != nil {
		return nil, err
	}
	addrs, stop, err := fxdist.DeployLocal(file, s.alloc)
	if err != nil {
		return nil, err
	}
	s.closers = append(s.closers, func() error { stop(); return nil })
	if s.cluster, err = fxdist.Open(fxdist.Config{File: file, Addrs: addrs}); err != nil {
		return nil, errors.Join(err, s.close())
	}
	s.closers = append(s.closers, s.cluster.Close)

	tenants := []gate.TenantConfig{
		{Name: "alpha", APIKey: "key-alpha"},
		{Name: "beta", APIKey: "key-beta"},
	}
	if s.gate, err = gate.New(gate.Config{Cluster: s.cluster, File: file, Allocator: s.alloc, Tenants: tenants}); err != nil {
		return nil, errors.Join(err, s.close())
	}
	s.closers = append(s.closers, func() error { s.gate.Close(); return nil })

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, errors.Join(err, s.close())
	}
	mux := http.NewServeMux()
	mux.Handle("/rpc", s.gate)
	srv := &http.Server{Handler: mux}
	served := make(chan struct{})
	go func() {
		defer close(served)
		srv.Serve(ln) //nolint:errcheck // returns ErrServerClosed when srv.Close runs
	}()
	s.closers = append(s.closers, func() error {
		err := srv.Close()
		<-served
		return err
	})
	endpoint := "http://" + ln.Addr().String() + "/rpc"

	for c := 0; c < clients; c++ {
		key := tenants[c%len(tenants)].APIKey
		tr := &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}
		cl := client.New(endpoint, client.WithAPIKey(key), client.WithHTTPClient(&http.Client{Transport: tr}))
		s.keys = append(s.keys, key)
		s.clients = append(s.clients, cl)
		s.closers = append(s.closers, func() error { cl.Close(); return nil })
	}
	return s, nil
}

// buildMemoryStack opens the in-memory backend; callers use
// Cluster.RetrieveContext directly.
func buildMemoryStack(file *mkhash.File, rel relation) (*stack, error) {
	s := &stack{rel: rel, file: file}
	var err error
	if s.alloc, err = newAllocator(file, rel.m); err != nil {
		return nil, err
	}
	if s.cluster, err = fxdist.Open(fxdist.Config{File: file, Allocator: s.alloc}); err != nil {
		return nil, err
	}
	s.closers = append(s.closers, s.cluster.Close)
	return s, nil
}

// buildDurableStack creates the durable backend in a fresh directory
// under parent, removed again on close.
func buildDurableStack(file *mkhash.File, rel relation, userBytes int64, parent string) (*stack, error) {
	s := &stack{rel: rel, file: file}
	s.userBytes.Store(userBytes)
	var err error
	if s.alloc, err = newAllocator(file, rel.m); err != nil {
		return nil, err
	}
	if err := os.MkdirAll(parent, 0o755); err != nil {
		return nil, err
	}
	if s.dir, err = os.MkdirTemp(parent, "durable-"); err != nil {
		return nil, err
	}
	s.closers = append(s.closers, func() error { return os.RemoveAll(s.dir) })
	if s.cluster, err = fxdist.Open(fxdist.Config{Dir: s.dir, File: file, Allocator: s.alloc}); err != nil {
		return nil, errors.Join(err, s.close())
	}
	s.closers = append(s.closers, s.cluster.Close)
	return s, nil
}

// close tears the stack down in reverse build order.
func (s *stack) close() error {
	var errs []error
	for i := len(s.closers) - 1; i >= 0; i-- {
		if err := s.closers[i](); err != nil {
			errs = append(errs, err)
		}
	}
	s.closers = nil
	return errors.Join(errs...)
}

// read answers q as client c through the stack's entry point.
func (s *stack) read(ctx context.Context, c int, q *poolQuery) (answer, error) {
	if s.gate != nil {
		res, err := s.clients[c].Retrieve(ctx, q.pairs)
		if err != nil {
			return answer{}, err
		}
		return answer{wire: res.Records}, nil
	}
	res, err := s.retrieve(ctx, q.pm)
	return answer{recs: res.Records}, err
}

// retrieve calls the serving cluster directly.
func (s *stack) retrieve(ctx context.Context, pm mkhash.PartialMatch) (fxdist.RetrieveResult, error) {
	if s.dir != "" {
		s.durMu.RLock()
		defer s.durMu.RUnlock()
	}
	return s.cluster.RetrieveContext(ctx, pm)
}

// insert appends one record to the durable cluster, syncing every device
// log afterwards when sync is set.
func (s *stack) insert(rec mkhash.Record, sync bool) error {
	s.durMu.Lock()
	defer s.durMu.Unlock()
	if err := s.cluster.Durable().Insert(rec); err != nil {
		return err
	}
	s.userBytes.Add(recordBytes(rec))
	if sync {
		return s.cluster.Durable().Sync()
	}
	return nil
}

// checkInserted is the read-your-write check: the exact-match query for
// rec must return rec and nothing else.
func (s *stack) checkInserted(ctx context.Context, rec mkhash.Record) error {
	res, err := s.retrieve(ctx, exactMatch(rec))
	if err != nil {
		return err
	}
	if len(res.Records) != 1 || digestRecords(res.Records) != hashRecord(rec) {
		return fmt.Errorf("read-your-write: exact match for %v returned %d records", rec, len(res.Records))
	}
	return nil
}
