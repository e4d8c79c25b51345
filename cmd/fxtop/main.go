// Command fxtop is a live terminal dashboard over a node's telemetry
// plane: it polls /debug/cluster (the federated fleet view a stats-
// pulling coordinator maintains) and /debug/resilience on the target's
// -metrics-addr listener, and renders fleet health — QPS and per-shape
// rates from counter deltas, p50/p99 latency from the merged
// histograms, plan-cache hit rate, mempool recycle rate, circuit
// breaker states, and per-node liveness/lag with fault flags. While a
// live rescale runs it also polls /debug/rescale and renders the
// migration's phase, per-bucket progress and copy rate.
//
// Usage:
//
//	# against a coordinator started with -metrics-addr and -stats-pull
//	fxtop -addr 127.0.0.1:9100
//	fxtop -addr 127.0.0.1:9100 -interval 5s
//	fxtop -addr 127.0.0.1:9100 -once        # one frame, no screen clear
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"net/http"
	"os"
	"time"
)

func main() {
	addr := flag.String("addr", "127.0.0.1:9100", "metrics address of the node to watch (its -metrics-addr)")
	interval := flag.Duration("interval", 2*time.Second, "poll and refresh interval")
	once := flag.Bool("once", false, "render a single frame and exit (no screen clearing)")
	flag.Parse()

	var prev *snapshot
	for {
		cur, err := poll(*addr)
		if err != nil {
			fmt.Fprintln(os.Stderr, "fxtop:", err)
			os.Exit(1)
		}
		if !*once {
			fmt.Print("\x1b[2J\x1b[H") // clear screen, home cursor
		}
		render(os.Stdout, prev, cur)
		if *once {
			return
		}
		prev = cur
		time.Sleep(*interval)
	}
}

// poll fetches one snapshot from the target's debug endpoints.
func poll(addr string) (*snapshot, error) {
	cur := &snapshot{at: time.Now()}
	if err := fetchJSON(addr, "/debug/cluster?format=json", &cur.fleets); err != nil {
		return nil, err
	}
	// Resilience is optional: a node without retry controllers still
	// renders; only transport errors are fatal.
	if err := fetchJSON(addr, "/debug/resilience?format=json", &cur.resil); err != nil {
		return nil, err
	}
	// Every cluster's handler mounts the rescale endpoint; a device
	// server's (fxnode serve) does not and 404s, so this poll is
	// best-effort.
	fetchJSON(addr, "/debug/rescale", &cur.rescale) //nolint:errcheck // endpoint is optional
	return cur, nil
}

func fetchJSON(addr, path string, into any) error {
	client := http.Client{Timeout: 5 * time.Second}
	resp, err := client.Get("http://" + addr + path)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: %s", path, resp.Status)
	}
	return json.NewDecoder(resp.Body).Decode(into)
}
