package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"time"

	"fxdist"
	"fxdist/client"
	"fxdist/internal/engine"
	"fxdist/internal/mempool"
	"fxdist/internal/mkhash"
	"fxdist/internal/pagestore"
	"fxdist/internal/query"
)

// span is one timed call into a layer. Spans of one query share Op; a
// rung's spans name the span of the rung above for the same query as
// Parent (-1 on the top rung). Times are nanoseconds since the trace
// began.
type span struct {
	ID     int    `json:"id"`
	Op     int    `json:"op"`
	Layer  string `json:"layer"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
}

func (s span) duration() int64 { return s.End - s.Start }

// tracer keeps spans in memory until the run ends.
type tracer struct {
	t0    time.Time
	spans []span
}

// pass replays n operations serially at one rung, recording a span
// around each call; verify, run outside the span, checks the call's
// output. The layers are timed from outside, one rung per pass, because
// this benchmark changes no code of the program: a rung's span is the
// whole call into that layer's public entry point, and the rung below
// is the same query issued one layer further down.
func (t *tracer) pass(layer string, parent []span, n int, call func(i int), verify func(i int) error) ([]span, error) {
	first := len(t.spans)
	for i := 0; i < n; i++ {
		sp := span{ID: len(t.spans), Op: i, Layer: layer, Parent: -1}
		if parent != nil {
			sp.Parent = parent[i].ID
		}
		sp.Start = time.Since(t.t0).Nanoseconds()
		call(i)
		sp.End = time.Since(t.t0).Nanoseconds()
		t.spans = append(t.spans, sp)
		if verify != nil {
			if err := verify(i); err != nil {
				return nil, fmt.Errorf("ladder rung %s, query %d: %w", layer, i, err)
			}
		}
	}
	return t.spans[first:len(t.spans):len(t.spans)], nil
}

// traceFile is the layout of trace-<workload>.json.
type traceFile struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Spans    []span `json:"spans"`
}

func (t *tracer) write(path, workload string, seed int64) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.Marshal(traceFile{Workload: workload, Seed: seed, Spans: t.spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

func durationsOf(spans []span) []float64 {
	out := make([]float64, len(spans))
	for i, s := range spans {
		out[i] = float64(s.duration())
	}
	return out
}

// engineCounts accumulates the result fields of the engine rung: exact
// counts over a fixed query sequence, so they repeat run to run.
type engineCounts struct {
	ops, rq, scanned, returned, devices int
	loadOverBound                       float64
}

func (e *engineCounts) add(res fxdist.RetrieveResult, m int) {
	e.ops++
	rq := 0
	for i, b := range res.DeviceBuckets {
		rq += b
		if b > 0 {
			e.devices++
		}
		if i < len(res.DeviceRecords) {
			e.scanned += res.DeviceRecords[i]
		}
	}
	e.rq += rq
	e.returned += len(res.Records)
	if bound := (rq + m - 1) / m; bound > 0 {
		e.loadOverBound += float64(res.LargestResponseSize) / float64(bound)
	}
}

// ladder is what the rung passes measured.
type ladder struct {
	rungs     map[string][]span // by layer
	engine    engineCounts
	engineOn  *fxdist.Cluster    // the cluster the engine rung ran on
	closers   []func() error     // what the ladder opened besides the stack
	engineRep fxdist.BackendCost // its cost report over the engine rung
	netRep    fxdist.BackendCost // the netdist cluster's, over its rung
	respBytes float64            // mean JSON-RPC response size at the gate rung
	syncNs    []float64          // durable: Sync timings
	pageScans int                // durable: buckets scanned at the pagestore rung
	diskBytes int64              // durable: device log bytes after the window
	userBytes int64              // durable: user bytes stored after the window
	recovery  float64            // durable: seconds to reopen the finished directory
}

// readLadder replays the first n queries of client 0's stream down the
// read rungs the stack has: client → gate → netdist → engine → mkhash.
// memory_point and durable_mixed start at the engine rung.
func (r *runner) readLadder(ctx context.Context, t *tracer, n int) (*ladder, error) {
	qs := r.streams[0][:n]
	lad := &ladder{rungs: make(map[string][]span)}
	st := r.stack
	var parent []span
	var err error
	answers := make([]answer, n)
	errs := make([]error, n)
	verify := func(i int) error {
		if errs[i] != nil {
			return errs[i]
		}
		return checkAnswer(&qs[i], answers[i], true)
	}

	if st.gate != nil {
		parent, err = t.pass("client", nil, n, func(i int) {
			answers[i], errs[i] = st.read(ctx, 0, &qs[i])
		}, verify)
		if err != nil {
			return nil, err
		}
		lad.rungs["client"] = parent

		reqs := make([]*http.Request, n)
		for i := range qs {
			params, err := json.Marshal(client.RetrieveParams{Query: qs[i].pairs})
			if err != nil {
				return nil, err
			}
			body, err := json.Marshal(client.Request{JSONRPC: "2.0", ID: json.RawMessage("1"), Method: client.MethodRetrieve, Params: params})
			if err != nil {
				return nil, err
			}
			reqs[i] = httptest.NewRequest(http.MethodPost, "/rpc", bytes.NewReader(body))
			reqs[i].Header.Set("Authorization", "Bearer "+st.keys[0])
		}
		recs := make([]*httptest.ResponseRecorder, n)
		totalBytes := 0
		parent, err = t.pass("gate", parent, n, func(i int) {
			recs[i] = httptest.NewRecorder()
			st.gate.ServeHTTP(recs[i], reqs[i])
		}, func(i int) error {
			totalBytes += recs[i].Body.Len()
			var resp client.Response
			var res client.RetrieveResult
			if err := json.Unmarshal(recs[i].Body.Bytes(), &resp); err != nil {
				return err
			}
			if recs[i].Code != http.StatusOK || resp.Error != nil {
				return fmt.Errorf("gate answered status %d, error %+v", recs[i].Code, resp.Error)
			}
			if err := json.Unmarshal(resp.Result, &res); err != nil {
				return err
			}
			recs[i] = nil
			return checkAnswer(&qs[i], answer{wire: res.Records}, true)
		})
		if err != nil {
			return nil, err
		}
		lad.rungs["gate"] = parent
		lad.respBytes = float64(totalBytes) / float64(n)

		fxdist.ResetCostProfilers()
		parent, err = t.pass("netdist", parent, n, func(i int) {
			var res fxdist.RetrieveResult
			res, errs[i] = st.cluster.RetrieveContext(ctx, qs[i].pm)
			answers[i] = answer{recs: res.Records}
		}, verify)
		if err != nil {
			return nil, err
		}
		lad.rungs["netdist"] = parent
		lad.netRep = st.cluster.CostReport()

		// The engine rung of a gate workload is the same file and
		// allocator opened as the memory backend: what is left when the
		// wire is taken away.
		mem, err := fxdist.Open(fxdist.Config{File: st.file, Allocator: st.alloc})
		if err != nil {
			return nil, err
		}
		lad.closers = append(lad.closers, mem.Close)
		lad.engineOn = mem
	} else {
		lad.engineOn = st.cluster
	}

	fxdist.ResetCostProfilers()
	var res fxdist.RetrieveResult
	parent, err = t.pass("engine", parent, n, func(i int) {
		res, errs[i] = lad.engineOn.RetrieveContext(ctx, qs[i].pm)
	}, func(i int) error {
		answers[i] = answer{recs: res.Records}
		lad.engine.add(res, st.rel.m)
		return verify(i)
	})
	if err != nil {
		return nil, err
	}
	lad.rungs["engine"] = parent
	lad.engineRep = lad.engineOn.CostReport()

	if st.dir != "" {
		return lad, r.durableLadder(ctx, t, lad, parent, qs)
	}
	var found []mkhash.Record
	lad.rungs["mkhash"], err = t.pass("mkhash", parent, n, func(i int) {
		found, errs[i] = st.file.Search(qs[i].pm)
		answers[i] = answer{recs: found}
	}, verify)
	return lad, err
}

// durableLadder adds the durable workload's lower rungs: the engine
// rung's reads (their spans are passed in) replayed as serial pagestore.Store.ScanInto calls over
// the plan's buckets on a copy of each device log, and an insert rung
// (DurableCluster.Insert above pagestore.Store.Append on the copies).
// It also measures sync cost, space and restart time on the copy.
func (r *runner) durableLadder(ctx context.Context, t *tracer, lad *ladder, reads []span, qs []poolQuery) error {
	st := r.stack
	n := len(qs)
	if err := st.cluster.Durable().Sync(); err != nil {
		return err
	}
	lad.userBytes = st.userBytes.Load()
	copyDir, err := os.MkdirTemp(filepath.Dir(st.dir), "copy-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(copyDir)
	logs, err := copyFiles(st.dir, copyDir)
	if err != nil {
		return err
	}
	stores := make([]*pagestore.Store, st.rel.m)
	defer func() {
		for _, s := range stores {
			if s != nil {
				s.Close() //nolint:errcheck // scratch copy, removed below
			}
		}
	}()
	for dev := range stores {
		path := filepath.Join(copyDir, fmt.Sprintf("device-%04d.log", dev))
		lad.diskBytes += logs[filepath.Base(path)]
		if stores[dev], err = pagestore.Open(path); err != nil {
			return err
		}
	}

	fs := st.alloc.FileSystem()
	im := query.NewInverseMapper(st.alloc)
	counts := make([]int, n)
	var scanErr error
	lad.rungs["pagestore"], err = t.pass("pagestore", reads, n, func(i int) {
		bq, err := st.file.BucketQuery(qs[i].pm)
		if err != nil {
			scanErr = err
			return
		}
		b := mempool.NewRecordBuilder(false)
		for dev := range stores {
			im.EachOnDevice(bq, dev, func(coords []int) {
				lad.pageScans++
				err := stores[dev].ScanInto(uint32(fs.Linear(coords)), b, func(rec mkhash.Record) error {
					if engine.Matches(qs[i].pm, rec) {
						counts[i]++
					}
					return nil
				})
				if err != nil {
					scanErr = err
				}
			})
		}
		b.Release()
	}, func(i int) error {
		if scanErr != nil {
			return scanErr
		}
		if counts[i] != qs[i].want {
			return fmt.Errorf("pagestore scan found %d records, oracle has %d", counts[i], qs[i].want)
		}
		return nil
	})
	if err != nil {
		return err
	}

	// Insert rung: fresh keys from a client id no loop client uses.
	const ladderClient = 1 << 20
	recs := make([]mkhash.Record, n)
	for i := range recs {
		recs[i] = insertRecord(st.rel, r.opt.seed, ladderClient, i)
	}
	errs := make([]error, n)
	inserts, err := t.pass("storage.insert", nil, n, func(i int) {
		errs[i] = st.insert(recs[i], false)
	}, func(i int) error {
		if errs[i] != nil || i%readBackEvery != readBackEvery-1 {
			return errs[i]
		}
		t0 := time.Now()
		if err := st.cluster.Durable().Sync(); err != nil {
			return err
		}
		lad.syncNs = append(lad.syncNs, float64(time.Since(t0).Nanoseconds()))
		return st.checkInserted(ctx, recs[i])
	})
	if err != nil {
		return err
	}
	lad.rungs["storage.insert"] = inserts
	lad.rungs["pagestore.append"], err = t.pass("pagestore.append", inserts, n, func(i int) {
		coords, err := st.file.BucketOf(recs[i])
		if err != nil {
			errs[i] = err
			return
		}
		errs[i] = stores[st.alloc.Device(coords)].Append(uint32(fs.Linear(coords)), recs[i])
	}, func(i int) error { return errs[i] })
	if err != nil {
		return err
	}

	for dev, s := range stores {
		if err := s.Sync(); err != nil {
			return err
		}
		err := s.Close()
		stores[dev] = nil
		if err != nil {
			return err
		}
	}
	t0 := time.Now()
	reopened, err := fxdist.Open(fxdist.Config{Dir: copyDir})
	if err != nil {
		return fmt.Errorf("reopen %s: %w", copyDir, err)
	}
	lad.recovery = time.Since(t0).Seconds()
	return reopened.Close()
}

// copyFiles copies every regular file of src into dst and returns their
// sizes by name.
func copyFiles(src, dst string) (map[string]int64, error) {
	entries, err := os.ReadDir(src)
	if err != nil {
		return nil, err
	}
	sizes := make(map[string]int64)
	for _, e := range entries {
		if !e.Type().IsRegular() {
			continue
		}
		b, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			return nil, err
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), b, 0o644); err != nil {
			return nil, err
		}
		sizes[e.Name()] = int64(len(b))
	}
	return sizes, nil
}
