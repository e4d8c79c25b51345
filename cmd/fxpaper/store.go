package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"fxdist"
	"fxdist/internal/cliutil"
)

// carSpec is the demo relation the store subcommands share.
var carSpec = fxdist.RecordSpec{Fields: []fxdist.FieldSpec{
	{Name: "make", Cardinality: 30},
	{Name: "model", Cardinality: 500},
	{Name: "year", Cardinality: 25},
	{Name: "color", Cardinality: 12},
}}

var carDepths = []int{3, 4, 3, 2} // F = 8, 16, 8, 4

// runStore manages a durable declustered store on disk: create one from a
// synthetic relation, inspect it, and run partial match queries against
// it across restarts.
func runStore(fs *flag.FlagSet, args []string, out io.Writer) error {
	dir := fs.String("dir", "", "cluster directory")
	if err := parse(fs, args); err != nil {
		return err
	}
	if *dir == "" || fs.NArg() == 0 {
		return usageError("usage: fxpaper store -dir DIR {create|info|query} [args]")
	}
	switch fs.Arg(0) {
	case "create":
		return storeCreate(newFlags("store create", fs.Output()), *dir, fs.Args()[1:], out)
	case "info":
		return withStore(fxdist.Config{Dir: *dir}, func(c *fxdist.Cluster) error {
			fmt.Fprintf(out, "cluster %s\n  method: %s\n  devices: %d\n  records: %d\n",
				*dir, c.Durable().Allocator().Name(), c.M(), c.Durable().Len())
			return nil
		})
	case "query":
		return withStore(fxdist.Config{Dir: *dir}, func(c *fxdist.Cluster) error {
			return storeQuery(c, fs.Args()[1:], out)
		})
	default:
		return fmt.Errorf("unknown subcommand %q", fs.Arg(0))
	}
}

// withStore opens the durable cluster cfg names, runs fn on it and closes
// it; a log that fails to close fails the command, whatever fn printed.
func withStore(cfg fxdist.Config, fn func(c *fxdist.Cluster) error) error {
	c, err := fxdist.Open(cfg, fxdist.WithCostModel(fxdist.ParallelDisk))
	if err != nil {
		return err
	}
	return errors.Join(fn(c), c.Close())
}

func storeCreate(fs *flag.FlagSet, dir string, args []string, out io.Writer) error {
	records := fs.Int("records", 50000, "synthetic records to load")
	devices := fs.Int("devices", 16, "device count (power of two)")
	method := fs.String("method", "fx", "declustering method: fx, modulo")
	seed := fs.Int64("seed", 1, "workload seed")
	if err := parse(fs, args); err != nil {
		return err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	file, err := fxdist.NewFile(fxdist.GenerateSchema(carSpec, carDepths))
	if err != nil {
		return err
	}
	recs, err := fxdist.GenerateRecords(carSpec, *records, *seed)
	if err != nil {
		return err
	}
	for _, r := range recs {
		if err := file.Insert(r); err != nil {
			return err
		}
	}
	sys, err := file.FileSystem(*devices)
	if err != nil {
		return err
	}
	var alloc fxdist.GroupAllocator
	switch strings.ToLower(*method) {
	case "fx":
		alloc, err = fxdist.NewFX(sys)
	case "modulo":
		alloc = fxdist.NewModulo(sys)
	default:
		return fmt.Errorf("unknown method %q", *method)
	}
	if err != nil {
		return err
	}
	return withStore(fxdist.Config{Dir: dir, File: file, Allocator: alloc}, func(c *fxdist.Cluster) error {
		fmt.Fprintf(out, "created %s: %d records on %d devices under %s\n",
			alloc.Name(), c.Durable().Len(), c.M(), dir)
		return nil
	})
}

func storeQuery(c *fxdist.Cluster, args []string, out io.Writer) error {
	spec, err := cliutil.ParseTerms(args)
	if err != nil {
		return err
	}
	pm, err := c.Spec(spec)
	if err != nil {
		return err
	}
	res, err := c.Retrieve(pm)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "%d matching records; buckets/device %v; largest %d; simulated response %v\n",
		len(res.Records), res.DeviceBuckets, res.LargestResponseSize, res.Response)
	for i, r := range res.Records {
		if i == 10 {
			fmt.Fprintf(out, "... and %d more\n", len(res.Records)-10)
			break
		}
		fmt.Fprintln(out, " ", strings.Join(r, ", "))
	}
	return nil
}

// runCheck verifies the integrity of a durable declustered store: every
// record must hash to the bucket it is filed under, and every bucket must
// live on the device the allocator assigns. Log-level corruption (torn or
// bit-flipped frames) is detected and healed by CRC recovery when the
// store opens; check covers the placement layer.
func runCheck(fs *flag.FlagSet, args []string, out io.Writer) error {
	dir := fs.String("dir", "", "cluster directory")
	if err := parse(fs, args); err != nil {
		return err
	}
	if *dir == "" {
		return usageError("usage: fxpaper check -dir DIR")
	}
	return withStore(fxdist.Config{Dir: *dir}, func(h *fxdist.Cluster) error {
		c := h.Durable()
		report, err := c.Check()
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "cluster %s: %d devices, %d records (%s)\n",
			*dir, report.Devices, report.Records, c.Allocator().Name())
		fmt.Fprintf(out, "records/device: %v\n", report.DeviceRecords)
		if report.Ok() {
			fmt.Fprintln(out, "OK: placement and hashing invariants hold")
			return nil
		}
		fmt.Fprintf(out, "FAIL: %d misplaced, %d mishashed records\n",
			report.MisplacedRecords, report.MishashedRecords)
		for _, p := range report.Problems {
			fmt.Fprintln(out, "  -", p)
		}
		return errors.New("placement check failed")
	})
}
