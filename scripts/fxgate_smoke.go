//go:build ignore

// Command fxgate_smoke is the CI smoke test for the serving tier: it
// builds a snapshot, starts fxnode device servers and an fxgate in
// front of them as real processes, then drives the public JSON-RPC
// surface the way an external client would — single retrieve, batch,
// explain, health, an unauthenticated probe — and scrapes
// /debug/tenants, /debug/optimality and /debug/plancache. It fails on
// any unexpected HTTP status or on schema drift in the response
// envelopes (missing jsonrpc/api_version fields, wrong tenant rows, a
// debug view listing more than the gate's one cluster).
//
//	go run scripts/fxgate_smoke.go
package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"time"

	"fxdist"
)

const (
	tenantKey  = "smoke-key"
	tenantName = "smoke"
	m          = 4
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "fxgate_smoke: FAIL:", err)
		os.Exit(1)
	}
	fmt.Println("fxgate_smoke: PASS")
}

func run() error {
	work, err := os.MkdirTemp("", "fxgate-smoke-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(work)

	// Build the snapshot the servers and the gate share.
	snap := filepath.Join(work, "parts.snap")
	if err := buildSnapshot(snap); err != nil {
		return fmt.Errorf("build snapshot: %w", err)
	}
	tenants := filepath.Join(work, "tenants.json")
	tj := fmt.Sprintf(`[{"name":%q,"api_key":%q,"rate_per_sec":1000,"burst":1000}]`, tenantName, tenantKey)
	if err := os.WriteFile(tenants, []byte(tj), 0o644); err != nil {
		return err
	}

	// Build the binaries once; `go run` per process would race on the
	// build cache and slow the job down.
	bin := filepath.Join(work, "bin")
	for _, tool := range []string{"fxnode", "fxgate"} {
		cmd := exec.Command("go", "build", "-o", filepath.Join(bin, tool), "./cmd/"+tool)
		cmd.Stderr = os.Stderr
		if err := cmd.Run(); err != nil {
			return fmt.Errorf("build %s: %w", tool, err)
		}
	}

	// One fxnode per device, with shedding armed (exercises the flag).
	var procs []*exec.Cmd
	defer func() {
		for _, p := range procs {
			if p.Process != nil {
				p.Process.Kill()
				p.Wait()
			}
		}
	}()
	var addrs []string
	for dev := 0; dev < m; dev++ {
		addr, err := freeAddr()
		if err != nil {
			return err
		}
		addrs = append(addrs, addr)
		cmd := exec.Command(filepath.Join(bin, "fxnode"), "serve",
			"-snapshot", snap, "-device", fmt.Sprint(dev), "-listen", addr,
			"-shed-inflight", "64", "-log-level", "warn")
		cmd.Stdout = os.Stdout
		cmd.Stderr = os.Stderr
		if err := cmd.Start(); err != nil {
			return fmt.Errorf("start fxnode %d: %w", dev, err)
		}
		procs = append(procs, cmd)
	}
	for _, addr := range addrs {
		if err := waitTCP(addr, 10*time.Second); err != nil {
			return fmt.Errorf("fxnode %s never listened: %w", addr, err)
		}
	}

	gateAddr, err := freeAddr()
	if err != nil {
		return err
	}
	gateCmd := exec.Command(filepath.Join(bin, "fxgate"),
		"-snapshot", snap, "-addrs", strings.Join(addrs, ","),
		"-tenants", tenants, "-listen", gateAddr, "-log-level", "warn")
	gateCmd.Stdout = os.Stdout
	gateCmd.Stderr = os.Stderr
	if err := gateCmd.Start(); err != nil {
		return fmt.Errorf("start fxgate: %w", err)
	}
	procs = append(procs, gateCmd)
	if err := waitTCP(gateAddr, 10*time.Second); err != nil {
		return fmt.Errorf("fxgate never listened: %w", err)
	}
	base := "http://" + gateAddr

	// fx.health first: proves the gate resolved the backend.
	var health struct {
		APIVersion string   `json:"api_version"`
		Status     string   `json:"status"`
		Backend    string   `json:"backend"`
		M          int      `json:"m"`
		Fields     []string `json:"fields"`
	}
	if err := call(base, tenantKey, "fx.health", nil, &health); err != nil {
		return fmt.Errorf("fx.health: %w", err)
	}
	if health.APIVersion != "fx/v1" || health.Status != "ok" || health.Backend != "netdist" || health.M != m {
		return fmt.Errorf("fx.health drifted: %+v", health)
	}

	// Single retrieve.
	var ret struct {
		APIVersion          string  `json:"api_version"`
		Records             [][]any `json:"records"`
		DeviceBuckets       []int   `json:"device_buckets"`
		LargestResponseSize int     `json:"largest_response_size"`
	}
	params := map[string]any{"query": map[string]string{"supplier": "supplier-1"}}
	if err := call(base, tenantKey, "fx.retrieve", params, &ret); err != nil {
		return fmt.Errorf("fx.retrieve: %w", err)
	}
	if ret.APIVersion != "fx/v1" || len(ret.DeviceBuckets) != m {
		return fmt.Errorf("fx.retrieve envelope drifted: %+v", ret)
	}

	// The gate's one port serves the handler of the cluster it opened:
	// one backend row each, the cluster's kind, which has seen the query.
	var audit []struct {
		Backend string `json:"backend"`
		Shapes  []struct {
			Queries uint64 `json:"queries"`
		} `json:"shapes"`
	}
	if err := getJSON(base+"/debug/optimality", &audit); err != nil {
		return err
	}
	if len(audit) != 1 || audit[0].Backend != "netdist" || len(audit[0].Shapes) == 0 || audit[0].Shapes[0].Queries == 0 {
		return fmt.Errorf("/debug/optimality holds %+v, want the netdist cluster's one row with queries", audit)
	}
	var plans []struct {
		Backend      string `json:"backend"`
		Hits, Misses uint64
	}
	if err := getJSON(base+"/debug/plancache", &plans); err != nil {
		return err
	}
	if len(plans) != 1 || plans[0].Backend != "netdist" || plans[0].Hits+plans[0].Misses == 0 {
		return fmt.Errorf("/debug/plancache holds %+v, want the netdist cluster's one cache with lookups", plans)
	}

	// Batch retrieve: two queries, both must come back with results.
	var batch struct {
		APIVersion string `json:"api_version"`
		Items      []struct {
			Result json.RawMessage `json:"result"`
			Error  json.RawMessage `json:"error"`
		} `json:"items"`
	}
	bp := map[string]any{"queries": []map[string]string{
		{"supplier": "supplier-1"},
		{"warehouse": "warehouse-2"},
	}}
	if err := call(base, tenantKey, "fx.retrieveBatch", bp, &batch); err != nil {
		return fmt.Errorf("fx.retrieveBatch: %w", err)
	}
	if batch.APIVersion != "fx/v1" || len(batch.Items) != 2 {
		return fmt.Errorf("fx.retrieveBatch envelope drifted: %+v", batch)
	}
	for i, item := range batch.Items {
		if len(item.Result) == 0 || len(item.Error) != 0 {
			return fmt.Errorf("batch item %d failed: %s", i, item.Error)
		}
	}

	// fx.explain: the bound invariant must hold on the wire.
	var ex struct {
		APIVersion string `json:"api_version"`
		Shape      string `json:"shape"`
		RQ         int    `json:"rq"`
		Bound      int    `json:"bound"`
		M          int    `json:"m"`
	}
	if err := call(base, tenantKey, "fx.explain", params, &ex); err != nil {
		return fmt.Errorf("fx.explain: %w", err)
	}
	if ex.APIVersion != "fx/v1" || ex.M != m || ex.Bound != (ex.RQ+m-1)/m {
		return fmt.Errorf("fx.explain drifted: %+v", ex)
	}

	// Unauthenticated probes must bounce with 401.
	status, _, err := post(base+"/rpc", "", `{"jsonrpc":"2.0","id":1,"method":"fx.health"}`)
	if err != nil {
		return err
	}
	if status != http.StatusUnauthorized {
		return fmt.Errorf("unauthenticated probe got %d, want 401", status)
	}

	// /debug/tenants must show the tenant's rows.
	res, err := http.Get(base + "/debug/tenants")
	if err != nil {
		return err
	}
	defer res.Body.Close()
	if res.StatusCode != http.StatusOK {
		return fmt.Errorf("/debug/tenants status %d", res.StatusCode)
	}
	var doc struct {
		Tenants []struct {
			Name     string `json:"name"`
			Requests uint64 `json:"requests"`
		} `json:"tenants"`
	}
	if err := json.NewDecoder(res.Body).Decode(&doc); err != nil {
		return fmt.Errorf("/debug/tenants decode: %w", err)
	}
	if len(doc.Tenants) != 1 || doc.Tenants[0].Name != tenantName || doc.Tenants[0].Requests < 4 {
		return fmt.Errorf("/debug/tenants drifted: %+v", doc)
	}
	return nil
}

func buildSnapshot(path string) error {
	spec := fxdist.RecordSpec{Fields: []fxdist.FieldSpec{
		{Name: "part", Cardinality: 100},
		{Name: "supplier", Cardinality: 20},
		{Name: "warehouse", Cardinality: 8},
	}}
	file, err := fxdist.NewFile(fxdist.GenerateSchema(spec, []int{3, 2, 2}))
	if err != nil {
		return err
	}
	records, err := fxdist.GenerateRecords(spec, 600, 11)
	if err != nil {
		return err
	}
	for _, r := range records {
		if err := file.Insert(r); err != nil {
			return err
		}
	}
	fs, err := file.FileSystem(m)
	if err != nil {
		return err
	}
	fx, err := fxdist.NewFX(fs)
	if err != nil {
		return err
	}
	return fxdist.SaveSnapshotFile(path, file, fx)
}

// call posts one JSON-RPC frame and decodes its result, failing on
// non-200, a JSON-RPC error, or a missing envelope.
func call(base, key, method string, params any, out any) error {
	frame := map[string]any{"jsonrpc": "2.0", "id": 1, "method": method}
	if params != nil {
		frame["params"] = params
	}
	body, err := json.Marshal(frame)
	if err != nil {
		return err
	}
	status, data, err := post(base+"/rpc", key, string(body))
	if err != nil {
		return err
	}
	if status != http.StatusOK {
		return fmt.Errorf("HTTP %d: %.300s", status, data)
	}
	var res struct {
		JSONRPC string          `json:"jsonrpc"`
		Result  json.RawMessage `json:"result"`
		Error   json.RawMessage `json:"error"`
	}
	if err := json.Unmarshal(data, &res); err != nil {
		return fmt.Errorf("bad envelope %.300s: %w", data, err)
	}
	if res.JSONRPC != "2.0" {
		return fmt.Errorf("envelope missing jsonrpc 2.0: %.300s", data)
	}
	if len(res.Error) != 0 {
		return fmt.Errorf("rpc error: %s", res.Error)
	}
	return json.Unmarshal(res.Result, out)
}

// getJSON decodes the JSON document a 200 GET of url answers into out.
func getJSON(url string, out any) error {
	res, err := http.Get(url)
	if err != nil {
		return err
	}
	defer res.Body.Close()
	if res.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: status %d", url, res.StatusCode)
	}
	if err := json.NewDecoder(res.Body).Decode(out); err != nil {
		return fmt.Errorf("GET %s: %w", url, err)
	}
	return nil
}

func post(url, key, body string) (int, []byte, error) {
	req, err := http.NewRequest(http.MethodPost, url, strings.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	if key != "" {
		req.Header.Set("Authorization", "Bearer "+key)
	}
	res, err := http.DefaultClient.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer res.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(res.Body); err != nil {
		return 0, nil, err
	}
	return res.StatusCode, buf.Bytes(), nil
}

func freeAddr() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	addr := l.Addr().String()
	l.Close()
	return addr, nil
}

func waitTCP(addr string, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		c, err := net.DialTimeout("tcp", addr, 250*time.Millisecond)
		if err == nil {
			c.Close()
			return nil
		}
		time.Sleep(100 * time.Millisecond)
	}
	return fmt.Errorf("timeout after %v", timeout)
}
