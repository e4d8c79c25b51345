// Command fxgate is the cluster's multi-tenant front door: a
// persistent-connection JSON-RPC 2.0 gateway (see package client for
// the wire contract) in front of either an in-process cluster built
// from a snapshot or a netdist coordinator over fxnode device servers.
//
// Usage:
//
//	# in-process backend straight from a snapshot
//	fxgate -snapshot cars.snap -tenants tenants.json -listen 127.0.0.1:8080
//
//	# distributed backend: coordinator over fxnode device servers
//	fxgate -snapshot cars.snap -addrs 127.0.0.1:9000,127.0.0.1:9001 \
//	       -tenants tenants.json -listen 127.0.0.1:8080
//
//	curl -s 127.0.0.1:8080/rpc -H 'Authorization: Bearer demo-key' \
//	  -d '{"jsonrpc":"2.0","id":1,"method":"fx.retrieve","params":{"query":{"make":"ford"}}}'
//
// tenants.json is a JSON array of tenant objects:
//
//	[{"name":"demo","api_key":"demo-key","rate_per_sec":100,"burst":200,"max_in_flight":32}]
//
// The gate's own telemetry lives beside the cluster's: /debug/tenants
// (per-tenant admission counters and shape slices), fxgate_* series on
// /metrics, and the tenant dimension on /debug/events wide events.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"fxdist"
	"fxdist/internal/cliutil"
	"fxdist/internal/gate"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "fxgate:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("fxgate", flag.ContinueOnError)
	listen := fs.String("listen", "127.0.0.1:8080", "RPC listen address (POST /rpc)")
	snapshot := fs.String("snapshot", "", "snapshot file: schema, records and allocator spec")
	addrsArg := fs.String("addrs", "", "comma-separated fxnode device addresses; empty serves the snapshot in process")
	tenantsPath := fs.String("tenants", "", "tenants config: JSON array of {name, api_key, rate_per_sec, burst, max_in_flight}")
	maxBatch := fs.Int("max-batch", 64, "largest coalesced dispatch")
	shedInflight := fs.Int("shed-inflight", 0, "shed requests beyond this many in flight gate-wide with 429/Retry-After (0 disables)")
	shedRetryAfter := fs.Duration("shed-retry-after", 500*time.Millisecond, "Retry-After hint for front-door sheds")
	burnShed := fs.Float64("burn-shed", 0, "SLO burn rate at which a query shape is refused admission (0 disables; needs -slo)")
	burnRetryAfter := fs.Duration("burn-retry-after", time.Second, "Retry-After hint for burn sheds")
	slo := fs.Duration("slo", 0, "latency objective per query shape (0 disables SLO tracking)")
	sloGoal := fs.Float64("slo-goal", 0.99, "fraction of queries that must meet -slo")
	obsFlags := cliutil.ObsFlags(fs, "also serve the observability endpoints on this separate address")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *snapshot == "" || *tenantsPath == "" {
		return errors.New("missing -snapshot or -tenants")
	}
	tenants, err := gate.LoadTenants(*tenantsPath)
	if err != nil {
		return err
	}
	file, alloc, err := fxdist.LoadSnapshotFile(*snapshot)
	if err != nil {
		return err
	}
	var opts []fxdist.Option
	if *slo > 0 {
		opts = append(opts, fxdist.WithLatencySLO(*slo, *sloGoal))
	}
	var cfg fxdist.Config
	if *addrsArg != "" {
		cfg = fxdist.Config{File: file, Addrs: strings.Split(*addrsArg, ",")}
	} else {
		if alloc == nil {
			return errors.New("snapshot carries no allocator spec (needed for the in-process backend)")
		}
		cfg = fxdist.Config{File: file, Allocator: alloc}
	}
	cluster, err := fxdist.Open(cfg, opts...)
	if err != nil {
		return err
	}
	defer cluster.Close()

	g, err := gate.New(gate.Config{
		Cluster:           cluster,
		File:              file,
		Allocator:         alloc,
		Tenants:           tenants,
		MaxBatch:          *maxBatch,
		MaxInFlight:       *shedInflight,
		ShedRetryAfter:    *shedRetryAfter,
		BurnShedThreshold: *burnShed,
		BurnRetryAfter:    *burnRetryAfter,
	})
	if err != nil {
		return err
	}
	defer g.Close()

	obsAddr, stopObs, err := obsFlags.Start()
	if err != nil {
		return err
	}
	defer stopObs()
	if obsAddr != "" {
		fmt.Printf("fxgate: observability on http://%s/metrics — endpoint index at http://%s/debug/\n", obsAddr, obsAddr)
	}

	// One port serves everything: the RPC endpoint plus the shared
	// observability surface (which now includes /debug/tenants).
	mux := http.NewServeMux()
	mux.Handle("/rpc", g)
	mux.Handle("/metrics", fxdist.MetricsHandler())
	mux.Handle("/debug/", fxdist.MetricsHandler())
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprintln(w, "ok")
	})

	l, err := net.Listen("tcp", *listen)
	if err != nil {
		return err
	}
	srv := &http.Server{Handler: mux}
	fmt.Printf("fxgate: serving %d tenants on http://%s/rpc (backend %s, max batch %d)\n",
		len(tenants), l.Addr(), cluster.Kind(), *maxBatch)

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	defer signal.Stop(sigc)
	go func() {
		<-sigc
		fmt.Println("fxgate: shutting down")
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		srv.Shutdown(ctx) //nolint:errcheck // best-effort drain before exit
	}()
	if err := srv.Serve(l); err != nil && !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	return nil
}
