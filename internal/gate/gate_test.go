package gate

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"testing"
	"time"

	"fxdist"
)

func TestShapeOf(t *testing.T) {
	s := "x"
	cases := []struct {
		pm   []*string
		want string
	}{
		{[]*string{nil, nil, nil}, "***"},
		{[]*string{&s, nil, &s}, "s*s"},
		{[]*string{&s}, "s"},
		{nil, ""},
	}
	for _, tc := range cases {
		if got := shapeOf(tc.pm); got != tc.want {
			t.Fatalf("shapeOf = %q, want %q", got, tc.want)
		}
	}
}

func TestTokenBucket(t *testing.T) {
	tn := newTenant(TenantConfig{Name: "t", APIKey: "k", RatePerSec: 10, Burst: 2})
	now := time.Unix(1000, 0)
	if ok, _ := tn.take(now, 1); !ok {
		t.Fatal("first token refused")
	}
	if ok, _ := tn.take(now, 1); !ok {
		t.Fatal("burst token refused")
	}
	ok, retry := tn.take(now, 1)
	if ok {
		t.Fatal("empty bucket admitted")
	}
	if retry <= 0 || retry > time.Second {
		t.Fatalf("retry hint %v, want ~100ms", retry)
	}
	// 100ms at 10/s refills one token.
	if ok, _ := tn.take(now.Add(100*time.Millisecond), 1); !ok {
		t.Fatal("refilled token refused")
	}
	// Unlimited tenants never refuse.
	free := newTenant(TenantConfig{Name: "f", APIKey: "k2"})
	for i := 0; i < 100; i++ {
		if ok, _ := free.take(now, 5); !ok {
			t.Fatal("unlimited tenant refused")
		}
	}
}

func TestInFlightQuota(t *testing.T) {
	tn := newTenant(TenantConfig{Name: "t", APIKey: "k", MaxInFlight: 2})
	if !tn.acquire() || !tn.acquire() {
		t.Fatal("slots under quota refused")
	}
	if tn.acquire() {
		t.Fatal("slot over quota admitted")
	}
	tn.release()
	if !tn.acquire() {
		t.Fatal("released slot not reusable")
	}
}

func TestSplitBatchError(t *testing.T) {
	cause0 := errors.New("boom0")
	cause2 := errors.New("boom2")
	joined := errors.Join(
		&fxdist.QueryError{Index: 0, Err: cause0},
		fmt.Errorf("epoch 3: %w", &fxdist.QueryError{Index: 2, Err: cause2}),
	)
	per := splitBatchError(joined, 3)
	if !errors.Is(per[0], cause0) {
		t.Fatalf("per[0] = %v", per[0])
	}
	if per[1] != nil {
		t.Fatalf("per[1] = %v, want nil", per[1])
	}
	if !errors.Is(per[2], cause2) {
		t.Fatalf("per[2] = %v", per[2])
	}
	if per := splitBatchError(nil, 2); per != nil {
		t.Fatalf("nil error split to %v, want a nil slice", per)
	}
	// Unattributable errors land on every unresolved slot — and a cause
	// that merely prints like an indexed one is unattributable.
	per = splitBatchError(errors.New("query 0: global failure"), 2)
	if per[0] == nil || per[1] == nil {
		t.Fatalf("global failure not fanned out: %v", per)
	}
}

func TestTenantSetValidation(t *testing.T) {
	if _, err := newTenantSet([]TenantConfig{{Name: "", APIKey: "k"}}); err == nil {
		t.Fatal("nameless tenant accepted")
	}
	if _, err := newTenantSet([]TenantConfig{
		{Name: "a", APIKey: "k"}, {Name: "a", APIKey: "k2"},
	}); err == nil {
		t.Fatal("duplicate name accepted")
	}
	if _, err := newTenantSet([]TenantConfig{
		{Name: "a", APIKey: "k"}, {Name: "b", APIKey: "k"},
	}); err == nil {
		t.Fatal("duplicate key accepted")
	}
	ts, err := newTenantSet([]TenantConfig{{Name: "a", APIKey: "k"}})
	if err != nil {
		t.Fatal(err)
	}
	if ts.authenticate("k") == nil {
		t.Fatal("valid key refused")
	}
	if ts.authenticate("wrong") != nil || ts.authenticate("") != nil {
		t.Fatal("invalid key admitted")
	}
}

// TestClosedGateIsDetachedAndCollectable pins the Close contract now
// that /debug/tenants is the gate's own: the gate's handler reports its
// tenants, no process-wide handler mounts the path, and once the gate
// is closed and dropped with its handler nothing else references it, so
// the gate — and the cluster and file it wraps — can be collected. The
// finalizer sits on the gate's tenant set, which only the gate
// references.
func TestClosedGateIsDetachedAndCollectable(t *testing.T) {
	spec := fxdist.RecordSpec{Fields: []fxdist.FieldSpec{{Name: "a", Cardinality: 8}, {Name: "b", Cardinality: 8}}}
	file, err := fxdist.NewFile(fxdist.GenerateSchema(spec, []int{2, 2}))
	if err != nil {
		t.Fatal(err)
	}
	fs, err := file.FileSystem(4)
	if err != nil {
		t.Fatal(err)
	}
	fx, err := fxdist.NewFX(fs)
	if err != nil {
		t.Fatal(err)
	}
	cluster, err := fxdist.Open(fxdist.Config{File: file, Allocator: fx})
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Close()
	g, err := New(Config{Cluster: cluster, File: file, Tenants: []TenantConfig{{Name: "solo", APIKey: "k"}}})
	if err != nil {
		t.Fatal(err)
	}
	get := func(h http.Handler) *httptest.ResponseRecorder {
		w := httptest.NewRecorder()
		h.ServeHTTP(w, httptest.NewRequest("GET", "/debug/tenants", nil))
		return w
	}
	var rep Report
	if err := json.NewDecoder(get(g.DebugHandler()).Body).Decode(&rep); err != nil || len(rep.Tenants) != 1 {
		t.Fatalf("the gate's /debug/tenants lists %d tenants (%v), want 1", len(rep.Tenants), err)
	}
	if w := get(cluster.DebugHandler()); w.Code != http.StatusNotFound {
		t.Fatalf("the cluster's handler serves /debug/tenants: %d", w.Code)
	}

	collected := make(chan struct{})
	runtime.SetFinalizer(g.tenants, func(*tenantSet) { close(collected) })
	g.Close()
	g = nil
	deadline := time.After(5 * time.Second)
	for {
		runtime.GC()
		select {
		case <-collected:
			return
		case <-deadline:
			t.Fatal("closed gate was never collected: something still references it")
		case <-time.After(10 * time.Millisecond):
		}
	}
}
