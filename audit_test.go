package fxdist_test

import (
	"testing"

	"fxdist"
	"fxdist/internal/telemetry"
)

// auditSetup builds the paper's §4 adversarial setting at the facade: a
// 2×2×2 bucket grid over M=4 devices. On this grid FX is strict optimal
// for the query class leaving fields a and b unspecified (shape "**s"),
// while Modulo overloads one device for the class leaving a and c
// unspecified (shape "*s*") — two coordinate pairs collide mod 4. The
// file carries no records: the audit judges qualified-bucket placement,
// not data volume.
func auditSetup(t *testing.T) (file *fxdist.File, fx *fxdist.FX, mod *fxdist.Modulo, fxPM, modPM fxdist.PartialMatch) {
	t.Helper()
	file, err := fxdist.NewFile(fxdist.Schema{Fields: []string{"a", "b", "c"}, Depths: []int{1, 1, 1}})
	if err != nil {
		t.Fatal(err)
	}
	fs, err := fxdist.NewFileSystem([]int{2, 2, 2}, 4)
	if err != nil {
		t.Fatal(err)
	}
	if fx, err = fxdist.NewFX(fs); err != nil {
		t.Fatal(err)
	}
	mod = fxdist.NewModulo(fs)
	if fxPM, err = file.Spec(map[string]string{"c": "x"}); err != nil {
		t.Fatal(err)
	}
	if modPM, err = file.Spec(map[string]string{"b": "x"}); err != nil {
		t.Fatal(err)
	}
	return file, fx, mod, fxPM, modPM
}

// shapeAudit finds one (backend, shape) row of the optimality report.
func shapeAudit(t *testing.T, backend, shape string) fxdist.ShapeAudit {
	t.Helper()
	for _, rep := range fxdist.OptimalityReport() {
		if rep.Backend != backend {
			continue
		}
		for _, s := range rep.Shapes {
			if s.Shape == shape {
				return s
			}
		}
	}
	t.Fatalf("no audit row for backend %q shape %q", backend, shape)
	return fxdist.ShapeAudit{}
}

// TestOptimalityReportAcrossBackends drives the strict-optimal FX shape
// and the adversarial Modulo shape through all four retrieval backends
// and asserts OptimalityReport keeps them apart per (backend, shape):
// FX's shape audits clean everywhere, Modulo's shape reports a nonzero
// deviation that never exceeds |R(q)| - bound.
func TestOptimalityReportAcrossBackends(t *testing.T) {
	file, fx, mod, fxPM, modPM := auditSetup(t)

	backends := map[string]func(alloc fxdist.GroupAllocator, pm fxdist.PartialMatch) error{
		"memory": func(alloc fxdist.GroupAllocator, pm fxdist.PartialMatch) error {
			c, err := fxdist.Open(fxdist.Config{File: file, Allocator: alloc})
			if err != nil {
				return err
			}
			_, err = c.Retrieve(pm)
			return err
		},
		"durable": func(alloc fxdist.GroupAllocator, pm fxdist.PartialMatch) error {
			c, err := fxdist.Open(fxdist.Config{Dir: t.TempDir(), File: file, Allocator: alloc},
				fxdist.WithCostModel(fxdist.ParallelDisk))
			if err != nil {
				return err
			}
			defer c.Close()
			_, err = c.Retrieve(pm)
			return err
		},
		"replicated": func(alloc fxdist.GroupAllocator, pm fxdist.PartialMatch) error {
			c, err := fxdist.Open(fxdist.Config{File: file, Allocator: alloc},
				fxdist.WithReplication(fxdist.ChainedFailover))
			if err != nil {
				return err
			}
			_, err = c.Retrieve(pm)
			return err
		},
		"netdist": func(alloc fxdist.GroupAllocator, pm fxdist.PartialMatch) error {
			addrs, stop, err := fxdist.DeployLocal(file, alloc)
			if err != nil {
				return err
			}
			defer stop()
			coord, err := fxdist.Open(fxdist.Config{File: file, Addrs: addrs})
			if err != nil {
				return err
			}
			defer coord.Close()
			_, err = coord.Retrieve(pm)
			return err
		},
	}
	for backend := range backends {
		telemetry.For(backend).ResetAudit()
	}
	for backend, retrieve := range backends {
		if err := retrieve(fx, fxPM); err != nil {
			t.Fatalf("%s retrieve with FX: %v", backend, err)
		}
		if err := retrieve(mod, modPM); err != nil {
			t.Fatalf("%s retrieve with Modulo: %v", backend, err)
		}
	}

	for backend := range backends {
		opt := shapeAudit(t, backend, "**s")
		if opt.Violations != 0 || opt.MaxDeviation != 0 {
			t.Errorf("%s/**s (FX): %d violations, max deviation %d; want strict optimal",
				backend, opt.Violations, opt.MaxDeviation)
		}
		if opt.Queries != 1 || opt.RQ != 4 || opt.M != 4 || opt.Bound != 1 {
			t.Errorf("%s/**s row wrong: %+v (want 1 query, |R(q)|=4, M=4, bound 1)", backend, opt)
		}

		bad := shapeAudit(t, backend, "*s*")
		if bad.Violations == 0 {
			t.Errorf("%s/*s* (Modulo): no violations reported on the adversarial shape", backend)
		}
		if bad.MaxDeviation <= 0 || bad.MaxDeviation > bad.RQ-bad.Bound {
			t.Errorf("%s/*s*: max deviation %d outside (0, |R(q)|-bound=%d]",
				backend, bad.MaxDeviation, bad.RQ-bad.Bound)
		}
		if bad.WorstDevice < 0 || bad.WorstDevice >= bad.M {
			t.Errorf("%s/*s*: worst device %d outside [0,%d)", backend, bad.WorstDevice, bad.M)
		}
		if bad.MaxBuckets != bad.Bound+bad.MaxDeviation {
			t.Errorf("%s/*s*: max device buckets %d != bound %d + deviation %d",
				backend, bad.MaxBuckets, bad.Bound, bad.MaxDeviation)
		}
	}
}
