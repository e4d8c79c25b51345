package fxdist_test

import (
	"testing"

	"fxdist"
)

// The facade options that the deeper tests reach only through internal
// packages: explicit transform kinds and a custom field hash.
func TestFacadeCoverage(t *testing.T) {
	fx, err := fxdist.NewFX(mustFS(t, []int{4, 4}, 16), fxdist.WithKinds([]fxdist.Kind{fxdist.I, fxdist.U}))
	if err != nil {
		t.Fatal(err)
	}
	if got := fx.Plan().Kinds(); got[0] != fxdist.I || got[1] != fxdist.U {
		t.Errorf("kinds = %v, want [I U]", got)
	}

	// Custom field hash through the facade.
	constant := func(string) uint64 { return 1 }
	file, err := fxdist.NewFile(fxdist.Schema{
		Fields: []string{"k"}, Depths: []int{2},
	}, fxdist.WithFieldHash(0, constant))
	if err != nil {
		t.Fatal(err)
	}
	if err := file.Insert(fxdist.Record{"anything"}); err != nil {
		t.Fatal(err)
	}
	b, _ := file.BucketOf(fxdist.Record{"other"})
	if b[0] != 1 {
		t.Errorf("custom hash ignored: %v", b)
	}
}

// Replicated cluster and device-server wrappers.
func TestFacadeReplicationSurface(t *testing.T) {
	file := buildTestFile(t)
	fs, _ := file.FileSystem(4)
	fx, _ := fxdist.NewFX(fs)

	rc, err := fxdist.Open(fxdist.Config{File: file, Allocator: fx},
		fxdist.WithReplication(fxdist.ChainedFailover))
	if err != nil {
		t.Fatal(err)
	}
	if rc.Kind() != fxdist.KindReplicated {
		t.Fatalf("kind = %q, want replicated", rc.Kind())
	}
	if err := rc.Replicated().Fail(1); err != nil {
		t.Fatal(err)
	}
	pm, _ := file.Spec(map[string]string{"b": "b-2"})
	want, _ := file.Search(pm)
	got, err := rc.Retrieve(pm)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Records) != len(want) {
		t.Errorf("replicated retrieve %d records, want %d", len(got.Records), len(want))
	}

	// Manual server construction via the facade.
	spec, err := fxdist.DescribeAllocator(fx)
	if err != nil {
		t.Fatal(err)
	}
	parts, err := fxdist.PartitionFile(file, fx)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fxdist.NewDeviceServer(0, spec, parts[0]); err != nil {
		t.Fatal(err)
	}
	if _, err := fxdist.NewReplicatedDeviceServer(1, spec, parts[1], parts[0]); err != nil {
		t.Fatal(err)
	}

	// Durable cluster create + reopen through Open.
	dir := t.TempDir()
	dc, err := fxdist.Open(fxdist.Config{Dir: dir, File: file, Allocator: fx})
	if err != nil {
		t.Fatal(err)
	}
	dc.Close()
	re, err := fxdist.Open(fxdist.Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if re.Durable().Len() != file.Len() {
		t.Errorf("reopened %d records, want %d", re.Durable().Len(), file.Len())
	}
}
