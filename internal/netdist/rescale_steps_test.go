package netdist

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"testing"

	"fxdist/internal/decluster"
	"fxdist/internal/mkhash"
	"fxdist/internal/persist"
	"fxdist/internal/rebalance"
	"fxdist/internal/storage"
)

// stepper is a rebalance.Transport straight into in-process servers'
// Server.control: no sockets and no clock. It numbers the ops it carries
// from 1 and, when send is set, asks it before each whether the op goes
// out. A withheld op reaches no server, as after a coordinator's crash;
// it is answered as a success, so the dead run ends without retrying.
type stepper struct {
	fleet []*Server
	send  func(n int) bool
	mu    sync.Mutex
	ops   []int // the Control of every op carried, in order
}

func (st *stepper) transport() rebalance.Transport {
	return controlFunc(func(_ context.Context, dev int, req Request) (Response, error) {
		st.mu.Lock()
		st.ops = append(st.ops, req.Control)
		sent := st.send == nil || st.send(len(st.ops))
		st.mu.Unlock()
		if !sent {
			return Response{StatsJSON: []byte("0")}, nil
		}
		req.AsDevice = -1
		resp := st.fleet[dev].control(&req)
		var err error
		if resp.Err != "" {
			err = errors.New(resp.Err)
		} else if n, _, _ := resp.found.Size(); n > 0 {
			resp.Records, _, err = mkhash.DecodeEncoded(resp.found.Bytes(), n)
		}
		resp.found.Release()
		return resp, err
	})
}

// rescaleCase is one rescale of an in-process fleet. build returns fresh
// servers for the union of its two device sets, in the state the rescale
// starts from: serving epoch under oldSpec.
type rescaleCase struct {
	name             string
	oldSpec, newSpec decluster.Spec
	epoch            int
	build            func(t *testing.T) []*Server
}

// run drives c over st with a driver on journal ("" for none); abort,
// when set, receives the driver before it runs.
func (c rescaleCase) run(t *testing.T, st *stepper, journal string, abort func(*rebalance.Driver)) error {
	t.Helper()
	d, err := rebalance.NewDriver(rebalance.DriverConfig{
		OldSpec: c.oldSpec, NewSpec: c.newSpec, Epoch: c.epoch,
		Transport: st.transport(), JournalPath: journal, Concurrency: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if abort != nil {
		abort(d)
	}
	return d.Run(context.Background())
}

// staticFleet serves file under spec at epoch 0, one server per device:
// a cluster deployed at that layout.
func staticFleet(t *testing.T, file *mkhash.File, spec decluster.Spec) []*Server {
	t.Helper()
	alloc, err := spec.Build()
	if err != nil {
		t.Fatal(err)
	}
	parts, err := storage.Split(file, alloc)
	if err != nil {
		t.Fatal(err)
	}
	fleet := make([]*Server, len(parts))
	for dev, part := range parts {
		if fleet[dev], err = NewServer(dev, spec, part); err != nil {
			t.Fatal(err)
		}
	}
	return fleet
}

// withTargets appends empty rescale targets for devices len(fleet)..spec.M-1.
func withTargets(t *testing.T, fleet []*Server, spec decluster.Spec) []*Server {
	t.Helper()
	for dev := len(fleet); dev < spec.M; dev++ {
		srv, err := NewTargetServer(dev, spec)
		if err != nil {
			t.Fatal(err)
		}
		fleet = append(fleet, srv)
	}
	return fleet
}

// described is the epoch s describes when asked for epoch.
func described(t *testing.T, s *Server, epoch int) int {
	t.Helper()
	resp := s.control(&Request{Control: OpDescribe, Epoch: epoch, AsDevice: -1})
	var d description
	if err := json.Unmarshal(resp.StatsJSON, &d); err != nil || resp.Err != "" {
		t.Fatalf("describe device %d: %v %s", s.deviceID, err, resp.Err)
	}
	return d.Epoch
}

// digestAt digests s's view of epoch; ok is false when s serves none.
func digestAt(s *Server, epoch int) (d mkhash.Digest, ok bool) {
	d, err := (&stepper{fleet: []*Server{s}}).transport().Digest(context.Background(), 0, epoch)
	return d, err == nil
}

// serverState is what a server shows of itself: the epoch it describes
// when asked for a rescale's old one, the digest of that epoch's view,
// and whether it serves the epoch after it too.
type serverState struct {
	Epoch  int
	Digest mkhash.Digest
	Next   bool
}

func states(t *testing.T, fleet []*Server, epoch int) []serverState {
	t.Helper()
	out := make([]serverState, len(fleet))
	for dev, s := range fleet {
		st := &out[dev]
		st.Epoch = described(t, s, epoch)
		st.Digest, _ = digestAt(s, st.Epoch)
		_, st.Next = digestAt(s, st.Epoch+1)
	}
	return out
}

// staticDigests digests each device of a static cluster under spec.
func staticDigests(t *testing.T, file *mkhash.File, spec decluster.Spec) []mkhash.Digest {
	t.Helper()
	var out []mkhash.Digest
	for _, s := range staticFleet(t, file, spec) {
		d, _ := digestAt(s, 0)
		out = append(out, d)
	}
	return out
}

// checkWindow asserts the invariants of DESIGN §12 on a fleet the
// rescale c left at some step. Every server describes one epoch: a
// survivor the old or the new, a target none or the new, a retiring one
// the old; the survivors split between the two only after a partial
// cutover, with the journal at verified, whose replay alone resolves it.
// And each device of the serving epoch — the new one once a survivor
// serves it alone — digests as the same device of a static cluster.
func checkWindow(t *testing.T, c rescaleCase, fleet []*Server, static [2][]mkhash.Digest, journal, at string) {
	t.Helper()
	e, survivors := c.epoch, min(c.oldSpec.M, c.newSpec.M)
	cut := 0
	for dev, s := range fleet {
		got, allowed := described(t, s, e), []int{e}
		switch {
		case dev < survivors:
			allowed = []int{e, e + 1}
		case dev < c.newSpec.M:
			allowed = []int{noEpoch, e + 1}
		}
		if !slices.Contains(allowed, got) {
			t.Fatalf("%s: device %d describes epoch %d, want one of %v", at, dev, got, allowed)
		}
		if dev < survivors && got == e+1 {
			cut++
		}
	}
	if cut > 0 && cut < survivors {
		if st, err := persist.LoadRescale(journal); err != nil || st.Phase != persist.RescaleVerified {
			t.Fatalf("%s: %d of %d survivors cut over, journal %+v (%v)", at, cut, survivors, st, err)
		}
	}
	side, m := 0, c.oldSpec.M
	if cut > 0 {
		side, m = 1, c.newSpec.M
	}
	for dev := range m {
		if d, ok := digestAt(fleet[dev], e+side); !ok || d != static[side][dev] {
			t.Fatalf("%s: device %d digests %+v (served %v) at epoch %d, a static cluster's %+v", at, dev, d, ok, e+side, static[side][dev])
		}
	}
}

// checkDone asserts a finished rescale: every device of the new epoch
// serves it alone and digests as a static cluster's.
func checkDone(t *testing.T, c rescaleCase, fleet []*Server, static [2][]mkhash.Digest, at string) {
	t.Helper()
	for dev := range c.newSpec.M {
		s := fleet[dev]
		if got := described(t, s, c.epoch); got != c.epoch+1 {
			t.Fatalf("%s: device %d describes epoch %d, want %d", at, dev, got, c.epoch+1)
		}
		if d, ok := digestAt(s, c.epoch+1); !ok || d != static[1][dev] {
			t.Fatalf("%s: device %d digests %+v at the new epoch, a static cluster's %+v", at, dev, d, static[1][dev])
		}
		if _, ok := digestAt(s, c.epoch); ok {
			t.Fatalf("%s: device %d still serves the old epoch", at, dev)
		}
	}
}

// TestRescaleEveryStep walks the driver's op sequence over a 2 → 4 grow,
// a 4 → 2 shrink, and a 4 → 2 shrink of a fleet grown 2 → 4. At every
// step one run dies — its journal kept as the crash left it — and a
// fresh driver replays that journal to the end; another run is aborted
// there and must leave every server as it found it, unless the abort
// came once the cutover had begun, when the rescale completes. The
// invariants of DESIGN §12 are checked after each.
func TestRescaleEveryStep(t *testing.T) {
	file := buildFile(t, 300)
	spec := func(m int) decluster.Spec {
		fs, err := file.FileSystem(m)
		if err != nil {
			t.Fatal(err)
		}
		s, err := decluster.SpecOf(decluster.MustFX(fs))
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	rescaled := func(s decluster.Spec, m int) decluster.Spec {
		r, err := s.Rescaled(m)
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	two, four := spec(2), spec(4)
	grow := rescaleCase{"grow", two, rescaled(two, 4), 0, func(t *testing.T) []*Server {
		return withTargets(t, staticFleet(t, file, two), rescaled(two, 4))
	}}
	grown := rescaleCase{"shrink-after-grow", grow.newSpec, rescaled(grow.newSpec, 2), 1, func(t *testing.T) []*Server {
		fleet := grow.build(t)
		if err := grow.run(t, &stepper{fleet: fleet}, "", nil); err != nil {
			t.Fatal(err)
		}
		return fleet
	}}
	cases := []rescaleCase{
		grow,
		{"shrink", four, rescaled(four, 2), 0, func(t *testing.T) []*Server { return staticFleet(t, file, four) }},
		grown,
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			static := [2][]mkhash.Digest{staticDigests(t, file, c.oldSpec), staticDigests(t, file, c.newSpec)}
			clean := &stepper{fleet: c.build(t)}
			if err := c.run(t, clean, "", nil); err != nil {
				t.Fatal(err)
			}
			checkDone(t, c, clean.fleet, static, "clean run")
			firstCutover := slices.Index(clean.ops, OpCutover)
			dir := t.TempDir()
			for k := range clean.ops {
				at := fmt.Sprintf("crash after %d of %d ops", k, len(clean.ops))
				fleet := c.build(t)
				journal := filepath.Join(dir, fmt.Sprint(k))
				var left []byte
				crash := &stepper{fleet: fleet, send: func(n int) bool {
					if n == k+1 {
						left, _ = os.ReadFile(journal)
					}
					return n <= k
				}}
				c.run(t, crash, journal, nil) //nolint:errcheck // a dead run's outcome reaches no one
				var err error
				if left == nil {
					err = os.Remove(journal)
				} else {
					err = os.WriteFile(journal, left, 0o644)
				}
				if err != nil && !errors.Is(err, os.ErrNotExist) {
					t.Fatal(err)
				}
				checkWindow(t, c, fleet, static, journal, at)
				if err := c.run(t, &stepper{fleet: fleet}, journal, nil); err != nil {
					t.Fatalf("%s: replay: %v", at, err)
				}
				checkDone(t, c, fleet, static, at+", replayed")

				at = fmt.Sprintf("abort before op %d of %d", k+1, len(clean.ops))
				fleet = c.build(t)
				before := states(t, fleet, c.epoch)
				ab := &stepper{fleet: fleet}
				err = c.run(t, ab, "", func(d *rebalance.Driver) {
					ab.send = func(n int) bool {
						if n == k+1 {
							d.Abort()
						}
						return true
					}
				})
				switch {
				case k < firstCutover && errors.Is(err, rebalance.ErrAborted):
					// The rollback reached the servers Prepare did; one that
					// reaches the retiring ones too changes nothing more: an
					// abort drops only the epoch it names.
					for dev := range fleet {
						if err := ab.transport().AbortRescale(context.Background(), dev, c.epoch+1); err != nil {
							t.Fatal(err)
						}
					}
					if after := states(t, fleet, c.epoch); !slices.Equal(after, before) {
						t.Fatalf("%s: servers %+v, before the rescale %+v", at, after, before)
					}
				case k >= firstCutover && err == nil:
					checkDone(t, c, fleet, static, at)
				default:
					t.Fatalf("%s (first cutover is op %d): run ended with %v", at, firstCutover+1, err)
				}
			}
		})
	}
}
