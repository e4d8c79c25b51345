// Command fxnode runs the distributed deployment pieces from the shell:
// serve one device's partition of a snapshotted file over TCP, or act as
// the coordinator and query a set of device servers.
//
// Usage:
//
//	# window 0..M-1: one server per device, all from the same snapshot
//	fxnode serve -snapshot cars.snap -device 0 -listen 127.0.0.1:9000
//	fxnode serve -snapshot cars.snap -device 1 -listen 127.0.0.1:9001
//	...
//
//	# coordinator: schema comes from the same snapshot
//	fxnode query -snapshot cars.snap -addrs 127.0.0.1:9000,127.0.0.1:9001 make=ford
//
// The rescale subcommand grows or shrinks a live deployment with zero
// downtime. Growing M -> 2M, first start the joining devices as empty
// rescale targets, then drive the migration:
//
//	fxnode serve -snapshot cars.snap -device 2 -rescale-target 4 -listen 127.0.0.1:9002
//	fxnode serve -snapshot cars.snap -device 3 -rescale-target 4 -listen 127.0.0.1:9003
//	fxnode rescale -snapshot cars.snap -addrs 127.0.0.1:9000,127.0.0.1:9001 \
//	    -new-m 4 -new-addrs 127.0.0.1:9000,...,127.0.0.1:9003 \
//	    -journal cars.rescale -metrics-addr 127.0.0.1:9100
//
// Shrinking halves the list instead (-new-m 1; -new-addrs defaults to a
// prefix of -addrs). While a rescale runs, a second fxnode steers it
// through the coordinator's debug address:
//
//	fxnode rescale -action status -debug 127.0.0.1:9100
//	fxnode rescale -action pause  -debug 127.0.0.1:9100
//
// Every subcommand accepts -metrics-addr to expose the observability
// endpoints of what it runs (/metrics Prometheus text of the server's or
// the cluster's own registry, /debug/traces recent query spans,
// /debug/pprof/ runtime profiles; query and rescale add the views of the
// cluster they open, /debug/optimality and the rest):
//
//	fxnode serve -snapshot cars.snap -device 0 -listen 127.0.0.1:9000 -metrics-addr 127.0.0.1:9100
//	curl -s 127.0.0.1:9100/metrics | grep fxdist_netdist_server
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/url"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"fxdist"
	"fxdist/internal/cliutil"
)

func main() {
	if len(os.Args) < 2 {
		fmt.Fprintln(os.Stderr, "usage: fxnode {serve|query|rescale} [flags]")
		os.Exit(2)
	}
	var err error
	switch os.Args[1] {
	case "serve":
		err = runServe(os.Args[2:])
	case "query":
		err = runQuery(os.Args[2:])
	case "rescale":
		err = runRescale(os.Args[2:])
	default:
		err = fmt.Errorf("unknown subcommand %q", os.Args[1])
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "fxnode:", err)
		os.Exit(1)
	}
}

// announceObs tells where serve and query expose the observability
// endpoints, when -metrics-addr asked for them.
func announceObs(addr string) {
	if addr != "" {
		fmt.Printf("fxnode: observability on http://%s/metrics — endpoint index at http://%s/debug/\n", addr, addr)
	}
}

func runServe(args []string) error {
	fs := flag.NewFlagSet("serve", flag.ContinueOnError)
	snapshot := fs.String("snapshot", "", "snapshot file (with allocator spec)")
	device := fs.Int("device", 0, "device id this node serves")
	listen := fs.String("listen", "127.0.0.1:0", "listen address")
	obsFlags := cliutil.ObsFlags(fs, "serve the device server's /metrics, /debug/traces, /debug/pprof/ and /debug/mempool on this address")
	shedInflight := fs.Int("shed-inflight", 0, "shed requests beyond this many in flight with a retryable busy response (0 disables)")
	shedRetryAfter := fs.Duration("shed-retry-after", 250*time.Millisecond, "retry-after hint attached to shed responses")
	rescaleTarget := fs.Int("rescale-target", 0, "serve an empty rescale-target device for a cluster growing to this many devices (0 serves the snapshot's own layout)")
	epoch := fs.Int("epoch", 1, "epoch a rescale target starts at: the growing cluster's current epoch + 1")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *snapshot == "" {
		return fmt.Errorf("missing -snapshot")
	}
	if err := obsFlags.Level(); err != nil {
		return err
	}
	file, alloc, err := fxdist.LoadSnapshotFile(*snapshot)
	if err != nil {
		return err
	}
	if alloc == nil {
		return fmt.Errorf("snapshot carries no allocator spec")
	}
	spec, err := fxdist.DescribeAllocator(alloc)
	if err != nil {
		return err
	}
	var srv *fxdist.DeviceServer
	var banner string
	if *rescaleTarget > 0 {
		// A rescale target holds no buckets yet: it joins a growing
		// cluster at the next epoch and receives its partition from the
		// migration stream.
		newSpec, err := spec.Rescaled(*rescaleTarget)
		if err != nil {
			return err
		}
		if *device < 0 || *device >= newSpec.M {
			return fmt.Errorf("device %d out of range [0,%d)", *device, newSpec.M)
		}
		srv, err = fxdist.NewRescaleTargetServer(*device, newSpec, *epoch)
		if err != nil {
			return err
		}
		banner = fmt.Sprintf("serving rescale-target device %d of %d (epoch %d, empty)", *device, newSpec.M, *epoch)
	} else {
		parts, err := fxdist.PartitionFile(file, alloc)
		if err != nil {
			return err
		}
		if *device < 0 || *device >= len(parts) {
			return fmt.Errorf("device %d out of range [0,%d)", *device, len(parts))
		}
		srv, err = fxdist.NewDeviceServer(*device, spec, parts[*device])
		if err != nil {
			return err
		}
		banner = fmt.Sprintf("serving device %d (%d buckets) of %s", *device, len(parts[*device]), alloc.Name())
	}
	if *shedInflight > 0 {
		srv.SetShedding(*shedInflight, *shedRetryAfter)
	}
	obsAddr, stopObs, err := obsFlags.Start(srv.DebugHandler())
	if err != nil {
		return err
	}
	defer stopObs()
	announceObs(obsAddr)
	l, err := net.Listen("tcp", *listen)
	if err != nil {
		return err
	}
	fmt.Printf("fxnode: %s on %s\n", banner, l.Addr())
	// Serve blocks until the listener closes. A SIGINT/SIGTERM closes the
	// server so Serve returns cleanly and the deferred metrics shutdown
	// actually runs (instead of the process dying mid-request with the
	// observability listener still bound).
	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	defer signal.Stop(sigc)
	go func() {
		<-sigc
		fmt.Println("fxnode: shutting down")
		srv.Close()
	}()
	return srv.Serve(l)
}

func runQuery(args []string) error {
	fs := flag.NewFlagSet("query", flag.ContinueOnError)
	snapshot := fs.String("snapshot", "", "snapshot file (schema source)")
	addrsArg := fs.String("addrs", "", "comma-separated device addresses, in device order")
	epoch := fs.Int("epoch", 0, "serving epoch of the fleet: advances by one per completed rescale (0 matches a never-rescaled fleet)")
	timeout := fs.Duration("timeout", 0, "overall retrieval deadline (0 waits indefinitely)")
	statsPull := fs.Duration("stats-pull", 0, "pull every device server's metrics snapshot at this interval into the /debug/cluster fleet view (0 pulls once)")
	slo := fs.Duration("slo", 0, "latency objective per query shape (0 disables SLO tracking)")
	sloGoal := fs.Float64("slo-goal", 0.99, "fraction of queries that must meet -slo")
	obsFlags := cliutil.ObsFlags(fs, "serve the coordinator's cluster handler (/metrics, /debug/optimality, /debug/hotpath, /debug/flight, /debug/cluster, ...; see /debug/) on this address")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *snapshot == "" || *addrsArg == "" {
		return fmt.Errorf("missing -snapshot or -addrs")
	}
	if err := obsFlags.Level(); err != nil {
		return err
	}
	file, _, err := fxdist.LoadSnapshotFile(*snapshot)
	if err != nil {
		return err
	}
	spec, err := cliutil.ParseTerms(fs.Args())
	if err != nil {
		return err
	}
	pm, err := file.Spec(spec)
	if err != nil {
		return err
	}
	var opts []fxdist.Option
	if *epoch > 0 {
		opts = append(opts, fxdist.WithDialEpoch(*epoch))
	}
	if *slo > 0 {
		opts = append(opts, fxdist.WithLatencySLO(*slo, *sloGoal))
	}
	if *statsPull > 0 {
		opts = append(opts, fxdist.WithStatsPull(*statsPull))
	}
	coord, err := fxdist.Open(fxdist.Config{File: file, Addrs: strings.Split(*addrsArg, ",")}, opts...)
	if err != nil {
		return err
	}
	defer coord.Close()
	obsAddr, stopObs, err := obsFlags.Start(coord.DebugHandler())
	if err != nil {
		return err
	}
	defer stopObs()
	announceObs(obsAddr)
	// A signal cancels the retrieval instead of killing the process, so
	// the deferred metrics and coordinator shutdowns run.
	sigCtx, stopSignals := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stopSignals()
	ctx := sigCtx
	if *statsPull == 0 {
		// One synchronous pull populates /debug/cluster for this process's
		// lifetime even without a refresh loop.
		coord.Coordinator().PullStats(ctx) //nolint:errcheck // failures land in the federator
	}
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}
	res, err := coord.RetrieveContext(ctx, pm)
	if err != nil {
		var terr *fxdist.TracedError
		if errors.As(err, &terr) {
			if ctx.Err() != nil {
				return fmt.Errorf("%w [deadline %v exceeded; join trace %d against /debug/traces]", err, *timeout, terr.TraceID)
			}
			return fmt.Errorf("%w [join trace %d against /debug/traces]", err, terr.TraceID)
		}
		return err
	}
	fmt.Printf("%d matching records; buckets/device %v; largest %d; trace %d\n",
		len(res.Records), res.DeviceBuckets, res.LargestResponseSize, res.TraceID)
	for i, r := range res.Records {
		if i == 20 {
			fmt.Printf("... and %d more\n", len(res.Records)-20)
			break
		}
		fmt.Println(" ", strings.Join(r, ", "))
	}
	printAudit(coord.OptimalityReport())
	if *statsPull > 0 {
		// The refresh loop makes this process the fleet view: keep it
		// (and its /debug/cluster endpoint) alive for fxtop until a
		// signal, rather than exiting after one query.
		fmt.Printf("fxnode: pulling device stats every %v; Ctrl-C to exit\n", *statsPull)
		<-sigCtx.Done()
	}
	return nil
}

func runRescale(args []string) error {
	fs := flag.NewFlagSet("rescale", flag.ContinueOnError)
	action := fs.String("action", "start", "start | status | pause | resume | abort")
	snapshot := fs.String("snapshot", "", "snapshot file (with allocator spec); start only")
	addrsArg := fs.String("addrs", "", "current device addresses, in device order; start only")
	newAddrsArg := fs.String("new-addrs", "", "post-rescale addresses, in device order (growing: current list plus the rescale-target servers; shrinking: defaults to a prefix of -addrs)")
	newM := fs.Int("new-m", 0, "post-rescale device count: double or half the current M")
	journal := fs.String("journal", "", "crash-safe migration journal; rerunning with the same path resumes instead of restarting")
	concurrency := fs.Int("concurrency", 0, "in-flight bucket copies (0 uses the driver default)")
	guardQueries := fs.Uint64("guard-queries", 0, "audited new-epoch queries the cutover guard requires (0 uses the default)")
	noGuard := fs.Bool("no-guard", false, "cut over without waiting on the optimality auditor")
	selfCheck := fs.Bool("self-check", true, "pump sampled queries through the verified window, where they read the new epoch, so an idle cluster still meets the cutover guard")
	statusEvery := fs.Duration("status-every", time.Second, "progress print interval")
	timeout := fs.Duration("timeout", 0, "overall rescale deadline (0 waits indefinitely)")
	obsFlags := cliutil.ObsFlags(fs, "serve the cluster's handler, /debug/rescale included, on this address (the control address for status/pause/resume/abort)")
	debugAddr := fs.String("debug", "", "the coordinating fxnode's -metrics-addr; status/pause/resume/abort only")
	if err := fs.Parse(args); err != nil {
		return err
	}
	switch *action {
	case "start":
		if err := obsFlags.Level(); err != nil {
			return err
		}
		return startRescale(rescaleStartConfig{
			snapshot: *snapshot, addrs: *addrsArg, newAddrs: *newAddrsArg,
			newM: *newM, journal: *journal, concurrency: *concurrency,
			guardQueries: *guardQueries, noGuard: *noGuard, selfCheck: *selfCheck,
			statusEvery: *statusEvery, timeout: *timeout, serve: obsFlags.Start,
		})
	case "status":
		if *debugAddr == "" {
			return fmt.Errorf("-action %s needs -debug <coordinator's -metrics-addr>", *action)
		}
		body, err := rescaleDebugGet(debugBase(*debugAddr))
		if err != nil {
			return err
		}
		fmt.Print(body)
		return nil
	case "pause", "resume", "abort":
		if *debugAddr == "" {
			return fmt.Errorf("-action %s needs -debug <coordinator's -metrics-addr>", *action)
		}
		body, err := rescaleDebugPost(debugBase(*debugAddr), *action)
		if err != nil {
			return err
		}
		fmt.Print(body)
		return nil
	default:
		return fmt.Errorf("unknown -action %q (want start|status|pause|resume|abort)", *action)
	}
}

type rescaleStartConfig struct {
	snapshot, addrs, newAddrs string
	newM, concurrency         int
	journal                   string
	guardQueries              uint64
	noGuard, selfCheck        bool
	statusEvery, timeout      time.Duration
	// serve, when set, serves the opened cluster's handler (-metrics-addr).
	serve func(http.Handler) (addr string, stop func(), err error)
}

// startRescale drives a live rescale to completion from the shell: it
// opens the cluster over the current addresses, starts the migration,
// prints progress until cutover (or failure after rollback), and exits
// with the cluster answering from the new layout. While it runs, its
// -metrics-addr serves the cluster's handler, whose /debug/rescale takes
// the status/pause/resume/abort verbs of other fxnode processes.
func startRescale(cfg rescaleStartConfig) error {
	if cfg.snapshot == "" || cfg.addrs == "" {
		return fmt.Errorf("missing -snapshot or -addrs")
	}
	if cfg.newM <= 0 {
		return fmt.Errorf("missing -new-m")
	}
	file, alloc, err := fxdist.LoadSnapshotFile(cfg.snapshot)
	if err != nil {
		return err
	}
	if alloc == nil {
		return fmt.Errorf("snapshot carries no allocator spec")
	}
	addrs := strings.Split(cfg.addrs, ",")
	var newAddrs []string
	switch {
	case cfg.newAddrs != "":
		newAddrs = strings.Split(cfg.newAddrs, ",")
	case cfg.newM < len(addrs):
		// Shrinking keeps a prefix of the current device set.
		newAddrs = addrs[:cfg.newM]
	default:
		return fmt.Errorf("growing to %d devices needs -new-addrs listing the joining rescale-target servers", cfg.newM)
	}
	if plan, err := fxdist.RescalePlanOf(alloc, cfg.newM); err == nil {
		fmt.Printf("fxnode: rescale %d -> %d devices: %d of %d buckets move, %d stay (owners derivable: %v)\n",
			plan.OldM, plan.NewM, len(plan.Moves), plan.Total, plan.Stay, plan.Derivable)
	}

	// A signal aborts the rescale (the driver rolls every server back)
	// rather than killing the process mid-migration; the journal makes
	// even a hard kill resumable.
	sigCtx, stopSignals := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stopSignals()
	ctx := sigCtx
	if cfg.timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, cfg.timeout)
		defer cancel()
	}
	var opts []fxdist.Option
	if cfg.journal != "" {
		opts = append(opts, fxdist.WithRescale(cfg.journal))
	}
	cl, err := fxdist.Open(fxdist.Config{File: file, Addrs: addrs}, opts...)
	if err != nil {
		return err
	}
	defer cl.Close()
	if cfg.serve != nil {
		addr, stop, err := cfg.serve(cl.DebugHandler())
		if err != nil {
			return err
		}
		defer stop()
		if addr != "" {
			fmt.Printf("fxnode: rescale control on http://%s/debug/rescale\n", addr)
		}
	}
	resc, err := cl.Rescale(ctx, fxdist.RescaleConfig{
		Addrs:           newAddrs,
		NewM:            cfg.newM,
		Allocator:       alloc,
		Concurrency:     cfg.concurrency,
		GuardMinQueries: cfg.guardQueries,
		DisableGuard:    cfg.noGuard,
	})
	if err != nil {
		return err
	}

	var pms []fxdist.PartialMatch
	if cfg.selfCheck {
		pms = sampleQueries(file, 8)
	}
	waitc := make(chan error, 1)
	go func() { waitc <- resc.Wait() }()
	ticker := time.NewTicker(cfg.statusEvery)
	defer ticker.Stop()
	for {
		select {
		case err := <-waitc:
			st := resc.Status()
			if err != nil {
				return fmt.Errorf("rescale failed in phase %s: %w", st.Phase, err)
			}
			fmt.Printf("fxnode: rescale complete: cluster now answers over %d devices (%d buckets moved; %d records digested on each epoch)\n",
				cl.M(), st.Copied, st.NewDigest.Records)
			return nil
		case <-ticker.C:
			st := resc.Status()
			line := fmt.Sprintf("fxnode: phase %-9s %d/%d buckets copied", st.Phase, st.Copied, st.TotalMoves)
			if st.OldDigest.Records > 0 {
				line += fmt.Sprintf("; digests: old epoch %d records, new epoch %d", st.OldDigest.Records, st.NewDigest.Records)
			}
			if st.Paused {
				line += " [paused]"
			}
			if st.LastGuardErr != "" {
				line += " [guard: " + st.LastGuardErr + "]"
			}
			fmt.Println(line)
			if len(pms) > 0 && !resc.Done() {
				// Self-check traffic: once verified each query reads the new
				// epoch and counts toward the guard floor.
				vctx, vcancel := context.WithTimeout(ctx, cfg.statusEvery)
				if err := resc.Verify(vctx, pms); err != nil && ctx.Err() == nil {
					fmt.Printf("fxnode: self-check query failed: %v\n", err)
				}
				vcancel()
			}
		}
	}
}

// sampleQueries builds up to n partial matches of mixed shapes from
// records actually in the file, so every one has a verifiable answer.
func sampleQueries(file *fxdist.File, n int) []fxdist.PartialMatch {
	fields := file.Schema().Fields
	var recs []fxdist.Record
	file.EachBucket(func(_ []int, records []fxdist.Record) {
		if len(recs) < n && len(records) > 0 {
			recs = append(recs, records[0])
		}
	})
	var pms []fxdist.PartialMatch
	for i, r := range recs {
		fi := i % len(fields)
		pairs := map[string]string{fields[fi]: r[fi]}
		if i%2 == 1 && len(fields) > 1 {
			fj := (fi + 1) % len(fields)
			pairs[fields[fj]] = r[fj]
		}
		pm, err := file.Spec(pairs)
		if err != nil {
			continue
		}
		pms = append(pms, pm)
	}
	return pms
}

// debugBase normalises a -debug address into a base URL.
func debugBase(addr string) string {
	if strings.Contains(addr, "://") {
		return strings.TrimSuffix(addr, "/")
	}
	return "http://" + addr
}

// rescaleDebugGet fetches a coordinator's /debug/rescale document.
func rescaleDebugGet(base string) (string, error) {
	res, err := http.Get(base + "/debug/rescale")
	if err != nil {
		return "", err
	}
	defer res.Body.Close()
	body, err := io.ReadAll(io.LimitReader(res.Body, 1<<20))
	if err != nil {
		return "", err
	}
	if res.StatusCode != http.StatusOK {
		return "", fmt.Errorf("GET /debug/rescale: %s: %s", res.Status, strings.TrimSpace(string(body)))
	}
	return string(body), nil
}

// rescaleDebugPost steers the cluster's running rescale through
// /debug/rescale.
func rescaleDebugPost(base, action string) (string, error) {
	res, err := http.PostForm(base+"/debug/rescale", url.Values{"action": {action}})
	if err != nil {
		return "", err
	}
	defer res.Body.Close()
	body, err := io.ReadAll(io.LimitReader(res.Body, 1<<20))
	if err != nil {
		return "", err
	}
	if res.StatusCode != http.StatusOK {
		return "", fmt.Errorf("%s: %s: %s", action, res.Status, strings.TrimSpace(string(body)))
	}
	return string(body), nil
}

// printAudit summarises the coordinator's per-shape optimality audit and
// SLO state after the query.
func printAudit(rep fxdist.BackendAudit) {
	for _, s := range rep.Shapes {
		line := fmt.Sprintf("audit shape %s: %d queries, %d violations, max deviation %d (bound %d)",
			s.Shape, s.Queries, s.Violations, s.MaxDeviation, s.Bound)
		if s.SLOTarget > 0 {
			line += fmt.Sprintf("; slo %v/%.2f%%: %d good %d bad, burn %.2f",
				s.SLOTarget, s.SLOGoal*100, s.Good, s.Bad, s.BurnRate)
		}
		fmt.Println(line)
	}
}
