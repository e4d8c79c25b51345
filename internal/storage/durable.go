package storage

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"fxdist/internal/decluster"
	"fxdist/internal/engine"
	"fxdist/internal/mkhash"
	"fxdist/internal/obs"
	"fxdist/internal/pagestore"
	"fxdist/internal/persist"
	"fxdist/internal/query"
)

// DurableCluster is the disk-backed counterpart of Cluster: every device
// persists its bucket partition in a crash-safe pagestore log, and the
// cluster's schema and allocator spec live in a metadata snapshot, so the
// whole deployment survives restarts via OpenDurable.
//
// Layout under dir:
//
//	meta.snap        schema + allocator spec (package persist format)
//	device-NNNN.log  one pagestore log per device
//
// A DurableCluster is safe for concurrent use: retrievals may run beside
// Insert, Delete, BulkInsert, Compact and Sync. Each device's log has
// its own reader/writer lock — a scan holds it shared for the device's
// whole share of the query, a mutation holds it exclusively — so a
// retrieval sees, per device, either all or none of any single
// mutation; it takes no snapshot across devices.
type DurableCluster struct {
	core
	dir    string
	schema *mkhash.File // schema-only file used to hash queries
	stores []*pagestore.Store
	locks  []sync.RWMutex // locks[dev] guards stores[dev]: scan = RLock, mutate = Lock
	logs   logMetrics
}

// logMetrics are the fxdist_pagestore_* series of one durable cluster's
// device logs, in its registry: the cluster times the appends and syncs
// it makes, counts its compactions and tombstones, and reads what
// recovery did from each log it opens.
type logMetrics struct {
	append, sync                                         *obs.Histogram
	opens, tornTails, recovered, compactions, tombstones *obs.Counter
}

func newLogMetrics(r *obs.Registry) logMetrics {
	return logMetrics{
		append: r.Histogram("fxdist_pagestore_append_seconds",
			"Latency of one record append (frame encode + buffered write).", nil),
		sync: r.Histogram("fxdist_pagestore_sync_seconds",
			"Latency of one fsync making appended frames durable.", nil),
		opens: r.Counter("fxdist_pagestore_opens_total",
			"Store opens (including creations), each replaying the log to rebuild the index."),
		tornTails: r.Counter("fxdist_pagestore_torn_tails_total",
			"Recoveries that truncated a torn or corrupt log tail."),
		recovered: r.Counter("fxdist_pagestore_recovered_records_total",
			"Live records recovered from logs during open."),
		compactions: r.Counter("fxdist_pagestore_compactions_total",
			"Log compactions (tombstone and dead-frame garbage collection)."),
		tombstones: r.Counter("fxdist_pagestore_tombstones_total",
			"Tombstone frames appended by deletes."),
	}
}

// durDevice adapts one device's pagestore log to the engine's Device
// contract. A scan error stops the device immediately: no further
// qualified buckets are counted once the device has failed.
type durDevice struct {
	c   *DurableCluster
	dev int
}

// Owner declares that the device serves device dev's log alone.
func (d durDevice) Owner() int { return d.dev }

// Scan only collects: under the read lock the store compares pm on the
// encoded bytes and appends the hits' bodies, from every qualified
// bucket, to ans.Found, which the merge builds with every other device's
// (engine.Answer). On error the slab goes back and the answer is zero.
func (d durDevice) Scan(ctx context.Context, q query.Query, pm mkhash.PartialMatch) (engine.Answer, error) {
	var ans engine.Answer
	c := d.c
	c.locks[d.dev].RLock()
	defer c.locks[d.dev].RUnlock()
	var buf [walkScratch]int
	w := c.im.Walk(query.WalkOver(buf[:]), q, d.dev)
	for coords := w.Next(); coords != nil; coords = w.Next() {
		if err := ctx.Err(); err != nil {
			ans.Found.Release()
			return engine.Answer{}, err
		}
		ans.Buckets++
		scanned, err := c.stores[d.dev].AppendMatching(uint32(c.fs.Linear(coords)), pm, &ans.Found)
		ans.Records += scanned
		if err != nil {
			ans.Found.Release()
			return engine.Answer{}, err
		}
	}
	return ans, nil
}

const metaName = "meta.snap"

func devicePath(dir string, dev int) string {
	return filepath.Join(dir, fmt.Sprintf("device-%04d.log", dev))
}

// CreateDurable materialises file's buckets as per-device logs under dir
// (which must exist and be empty of cluster files) and writes the
// metadata snapshot. The allocator must match the file's directory sizes.
func CreateDurable(dir string, file *mkhash.File, alloc decluster.GroupAllocator, opts ...Option) (*DurableCluster, error) {
	fs := alloc.FileSystem()
	if err := checkAllocator(file, fs); err != nil {
		return nil, err
	}
	st := newSettings(opts)
	if _, err := os.Stat(filepath.Join(dir, metaName)); err == nil {
		return nil, fmt.Errorf("storage: %s already holds a durable cluster", dir)
	}

	// Metadata: a schema-only snapshot plus the allocator spec.
	schemaOnly, err := mkhash.New(mkhash.Schema{Fields: file.Schema().Fields, Depths: file.Depths()})
	if err != nil {
		return nil, err
	}
	if err := persist.SaveFile(filepath.Join(dir, metaName), schemaOnly, alloc); err != nil {
		return nil, err
	}

	c, err := newDurable(dir, schemaOnly, alloc, st)
	if err != nil {
		return nil, err
	}
	var insertErr error
	file.EachBucket(func(coords []int, records []mkhash.Record) {
		if insertErr != nil {
			return
		}
		insertErr = c.stores[alloc.Device(coords)].AppendRun(uint32(fs.Linear(coords)), records)
	})
	if insertErr != nil {
		c.Close()
		return nil, insertErr
	}
	if err := c.Sync(); err != nil {
		c.Close()
		return nil, err
	}
	return c, nil
}

// OpenDurable reopens a durable cluster created by CreateDurable. Files
// built with custom field hashes must pass the same WithHash options
// via WithFileOptions.
func OpenDurable(dir string, opts ...Option) (*DurableCluster, error) {
	st := newSettings(opts)
	schemaOnly, alloc, err := persist.LoadFile(filepath.Join(dir, metaName), st.fileOpts...)
	if err != nil {
		return nil, err
	}
	if alloc == nil {
		return nil, fmt.Errorf("storage: %s metadata carries no allocator spec", dir)
	}
	return newDurable(dir, schemaOnly, alloc, st)
}

// newDurable wires a cluster over dir's device logs, opening (and so
// recovering) every one.
func newDurable(dir string, schema *mkhash.File, alloc decluster.GroupAllocator, st *settings) (*DurableCluster, error) {
	m := alloc.FileSystem().M
	c := &DurableCluster{
		core:   newCore(alloc),
		dir:    dir,
		schema: schema,
		stores: make([]*pagestore.Store, m),
		locks:  make([]sync.RWMutex, m),
	}
	devices := make([]engine.Device, m)
	for dev := range devices {
		devices[dev] = durDevice{c: c, dev: dev}
	}
	if err := c.wire("durable", schema, devices, st); err != nil {
		return nil, err
	}
	c.logs = newLogMetrics(c.Instruments().Registry)
	for dev := range c.stores {
		s, err := pagestore.Open(devicePath(dir, dev))
		if err != nil {
			c.Close()
			return nil, err
		}
		c.stores[dev] = s
		c.logs.opens.Inc()
		c.logs.recovered.Add(uint64(s.Len()))
		if torn, off, was := s.TornTail(); torn {
			c.logs.tornTails.Inc()
			obs.Logger().Info("pagestore: truncated torn tail", "path", s.Path(), "offset", off, "was_bytes", was)
		}
	}
	return c, nil
}

// Spec builds a value-level partial match query against the cluster's
// schema: pairs of (field name, value); unmentioned fields are
// unspecified.
func (c *DurableCluster) Spec(pairs map[string]string) (mkhash.PartialMatch, error) {
	return c.schema.Spec(pairs)
}

// Fields returns the schema's field names.
func (c *DurableCluster) Fields() []string {
	return append([]string(nil), c.schema.Schema().Fields...)
}

// Len returns the total stored record count across devices.
func (c *DurableCluster) Len() int {
	n := 0
	for dev, s := range c.stores {
		if s != nil {
			c.locks[dev].RLock()
			n += s.Len()
			c.locks[dev].RUnlock()
		}
	}
	return n
}

// Insert routes one record to its device log. Call Sync to make a batch
// durable.
func (c *DurableCluster) Insert(r mkhash.Record) error {
	dev, bucket, err := c.schema.Route(r, c.alloc)
	if err != nil {
		return err
	}
	c.locks[dev].Lock()
	defer c.locks[dev].Unlock()
	t0 := time.Now()
	err = c.stores[dev].Append(uint32(bucket), r)
	c.logs.append.ObserveSince(t0)
	return err
}

// Delete removes every stored record equal to r from its device log
// (tombstoned, so the deletion survives restarts) and returns the number
// removed.
func (c *DurableCluster) Delete(r mkhash.Record) (int, error) {
	dev, bucket, err := c.schema.Route(r, c.alloc)
	if err != nil {
		return 0, err
	}
	c.locks[dev].Lock()
	defer c.locks[dev].Unlock()
	n, err := c.stores[dev].Delete(uint32(bucket), r)
	if n > 0 {
		c.logs.tombstones.Inc()
	}
	return n, err
}

// eachStore runs op on every open device log, each under its device's
// write lock, and reports every device that failed.
func (c *DurableCluster) eachStore(name string, op func(*pagestore.Store) error) error {
	var errs []error
	for dev, s := range c.stores {
		if s == nil {
			continue
		}
		c.locks[dev].Lock()
		err := op(s)
		c.locks[dev].Unlock()
		if err != nil {
			errs = append(errs, fmt.Errorf("storage: %s device %d: %w", name, dev, err))
		}
	}
	return errors.Join(errs...)
}

// Compact rewrites every device log with only live records, each bucket
// as one run.
func (c *DurableCluster) Compact() error {
	t0 := time.Now()
	before := c.Len()
	err := c.eachStore("compact", func(s *pagestore.Store) error {
		err := s.Compact()
		if err == nil {
			c.logs.compactions.Inc()
		}
		return err
	})
	if err != nil {
		return err
	}
	obs.Logger().Info("storage: compacted device logs", "logs", len(c.stores), "dir", c.dir,
		"live_records", before, "took", time.Since(t0))
	return nil
}

// BulkInsert loads a batch of records concurrently: records are
// partitioned by target device and grouped by bucket (batch order kept
// within a bucket), then each device's partition is appended a run per
// bucket by its own goroutine under that device's write lock, followed
// by a single sync. Either every record is appended and synced, or an error
// is returned; on error the logs may contain a durable prefix of the
// batch (appends are idempotent to re-run only if the caller dedupes).
func (c *DurableCluster) BulkInsert(records []mkhash.Record) error {
	parts := make([]map[uint32][]mkhash.Record, c.fs.M)
	for _, r := range records {
		dev, bucket, err := c.schema.Route(r, c.alloc)
		if err != nil {
			return err
		}
		if parts[dev] == nil {
			parts[dev] = make(map[uint32][]mkhash.Record)
		}
		parts[dev][uint32(bucket)] = append(parts[dev][uint32(bucket)], r)
	}
	errs := make([]error, c.fs.M)
	var wg sync.WaitGroup
	for dev, part := range parts {
		if len(part) == 0 {
			continue
		}
		wg.Add(1)
		go func(dev int, part map[uint32][]mkhash.Record) {
			defer wg.Done()
			c.locks[dev].Lock()
			defer c.locks[dev].Unlock()
			for bucket, run := range part {
				if errs[dev] = c.stores[dev].AppendRun(bucket, run); errs[dev] != nil {
					return
				}
			}
		}(dev, part)
	}
	wg.Wait()
	for dev, err := range errs {
		if err != nil {
			return fmt.Errorf("storage: bulk insert device %d: %w", dev, err)
		}
	}
	return c.Sync()
}

// Sync flushes every device log to stable storage.
func (c *DurableCluster) Sync() error {
	return c.eachStore("sync", func(s *pagestore.Store) error {
		t0 := time.Now()
		err := s.Sync()
		c.logs.sync.ObserveSince(t0)
		return err
	})
}

// Close closes every device log and drops the resident plans.
func (c *DurableCluster) Close() error {
	c.core.Close()
	return c.eachStore("close", (*pagestore.Store).Close)
}
