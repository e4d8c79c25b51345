//go:build ignore

// Command rescale_chaos is the CI crash-recovery test for live
// rescaling: it deploys a real fxnode fleet from a snapshot and runs a
// live 4 -> 8 grow through `fxnode rescale` twice. The first run gets a
// SIGINT mid-migration (as soon as the journal records progress), which
// fxnode turns into an abort; the second is SIGKILLed at the same point.
// It verifies that
//
//  1. the cluster keeps answering queries byte-identically from the old
//     epoch through the abort and through the crash (zero downtime),
//  2. the abort rolls the targets back: a fresh Open over the new list
//     is refused, as they serve no epoch,
//  3. re-running the killed command against its journal resumes the
//     migration instead of restarting it, and
//  4. after cutover a fresh coordinator, which reads the epoch from the
//     servers, answers every query byte-identically to the single-device
//     reference.
//
// Run it with:
//
//	go run scripts/rescale_chaos.go
package main

import (
	"fmt"
	"io"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"syscall"
	"time"

	"fxdist"
	"fxdist/internal/persist"
)

const (
	oldM = 4
	newM = 8
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "rescale_chaos: FAIL:", err)
		os.Exit(1)
	}
	fmt.Println("rescale_chaos: PASS")
}

func run() error {
	work, err := os.MkdirTemp("", "rescale-chaos-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(work)

	// Enough buckets that the copy phase has a real window to die in:
	// depths {4,3,2} give 512 buckets, half of which move on a grow.
	spec := fxdist.RecordSpec{Fields: []fxdist.FieldSpec{
		{Name: "part", Cardinality: 500},
		{Name: "supplier", Cardinality: 80},
		{Name: "warehouse", Cardinality: 16},
	}}
	file, err := fxdist.NewFile(fxdist.GenerateSchema(spec, []int{4, 3, 2}))
	if err != nil {
		return err
	}
	records, err := fxdist.GenerateRecords(spec, 6000, 33)
	if err != nil {
		return err
	}
	for _, r := range records {
		if err := file.Insert(r); err != nil {
			return err
		}
	}
	fs, err := file.FileSystem(oldM)
	if err != nil {
		return err
	}
	fx, err := fxdist.NewFX(fs)
	if err != nil {
		return err
	}
	snap := filepath.Join(work, "file.snap")
	if err := fxdist.SaveSnapshotFile(snap, file, fx); err != nil {
		return err
	}

	// The old fleet and the empty rescale targets run in-process: the
	// chaos is aimed at the coordinator, the devices stay up throughout.
	addrs, stopOld, err := fxdist.DeployLocal(file, fx)
	if err != nil {
		return err
	}
	defer stopOld()
	aspec, err := fxdist.DescribeAllocator(fx)
	if err != nil {
		return err
	}
	newSpec, err := aspec.Rescaled(newM)
	if err != nil {
		return err
	}
	newAddrs := append([]string(nil), addrs...)
	for dev := oldM; dev < newM; dev++ {
		srv, err := fxdist.NewRescaleTargetServer(dev, newSpec)
		if err != nil {
			return err
		}
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return err
		}
		defer srv.Close()
		newAddrs = append(newAddrs, l.Addr().String())
		go srv.Serve(l) //nolint:errcheck // ends when srv.Close closes l
	}

	// Reference answers from the single-device search.
	queries := []map[string]string{
		{"supplier": "supplier-3"},
		{"warehouse": "warehouse-7"},
		{"part": "part-11"},
		{"supplier": "supplier-9", "warehouse": "warehouse-2"},
	}
	var pms []fxdist.PartialMatch
	var want [][]string
	for _, pairs := range queries {
		pm, err := file.Spec(pairs)
		if err != nil {
			return err
		}
		pms = append(pms, pm)
		recs, err := file.Search(pm)
		if err != nil {
			return err
		}
		want = append(want, canonical(recs))
	}

	bin := filepath.Join(work, "fxnode")
	build := exec.Command("go", "build", "-o", bin, "./cmd/fxnode")
	build.Stderr = os.Stderr
	if err := build.Run(); err != nil {
		return fmt.Errorf("build fxnode: %w", err)
	}
	rescaleArgs := func(journal string) []string {
		return []string{"rescale", "-action", "start",
			"-snapshot", snap,
			"-addrs", strings.Join(addrs, ","),
			"-new-addrs", strings.Join(newAddrs, ","),
			"-journal", journal,
			"-concurrency", "1",
			"-guard-queries", "2",
			"-status-every", "25ms",
			"-log-level", "off",
		}
	}

	// Run 0: interrupt the coordinator mid-migration; fxnode aborts the
	// rescale, which rolls every server back.
	abortJournal := filepath.Join(work, "abort.journal")
	abortOut := &strings.Builder{}
	aborted, err := startMidCopy(bin, rescaleArgs(abortJournal), abortJournal, abortOut)
	if err != nil {
		return err
	}
	if err := aborted.Process.Signal(os.Interrupt); err != nil {
		return fmt.Errorf("SIGINT coordinator: %w", err)
	}
	if err := aborted.Wait(); err == nil || !strings.Contains(abortOut.String(), "rescale aborted") {
		return fmt.Errorf("interrupted rescale did not abort (%v):\n%s", err, abortOut.String())
	}
	fmt.Println("rescale_chaos: coordinator interrupted mid-migration; rescale aborted")
	cl, err := fxdist.Open(fxdist.Config{File: file, Addrs: addrs})
	if err != nil {
		return fmt.Errorf("dial old epoch after abort: %w", err)
	}
	err = checkAnswers(cl, pms, want, "old epoch after abort")
	cl.Close()
	if err != nil {
		return err
	}
	if cl, err := fxdist.Open(fxdist.Config{File: file, Addrs: newAddrs}); err == nil {
		cl.Close()
		return fmt.Errorf("opened the new address list after an abort")
	} else if !strings.Contains(err.Error(), "serves no epoch") {
		return fmt.Errorf("open of the new address list after an abort: %v, want a target that serves no epoch", err)
	}
	fmt.Println("rescale_chaos: the aborted targets serve no epoch")

	// Run 1: kill the coordinator as soon as the journal records
	// progress — mid-migration by construction.
	journal := filepath.Join(work, "rescale.journal")
	first, err := startMidCopy(bin, rescaleArgs(journal), journal, os.Stdout)
	if err != nil {
		return err
	}
	if err := first.Process.Signal(syscall.SIGKILL); err != nil {
		return fmt.Errorf("SIGKILL coordinator: %w", err)
	}
	err = first.Wait()
	if err == nil {
		return fmt.Errorf("coordinator exited cleanly before the kill; no crash was tested")
	}
	fmt.Printf("rescale_chaos: coordinator killed mid-migration (%v)\n", err)

	// The journal must record an unfinished migration.
	st, err := persist.LoadRescale(journal)
	if err != nil {
		return fmt.Errorf("load journal after kill: %w", err)
	}
	if st.Phase == persist.RescaleDone {
		return fmt.Errorf("journal already records phase %q; the kill landed too late", st.Phase)
	}
	fmt.Printf("rescale_chaos: journal holds phase %q, %d buckets copied\n", st.Phase, len(st.Done))

	// Zero downtime: the old epoch answers byte-identically right now,
	// with the fleet mid-migration and the coordinator dead.
	cl, err = fxdist.Open(fxdist.Config{File: file, Addrs: addrs})
	if err != nil {
		return fmt.Errorf("dial old epoch after crash: %w", err)
	}
	if err := checkAnswers(cl, pms, want, "old epoch after crash"); err != nil {
		cl.Close()
		return err
	}
	cl.Close()

	// Run 2: same command, same journal — must resume and complete.
	second := exec.Command(bin, rescaleArgs(journal)...)
	out := &strings.Builder{}
	second.Stdout = out
	second.Stderr = os.Stderr
	if err := second.Run(); err != nil {
		return fmt.Errorf("resumed rescale failed: %w\n%s", err, out.String())
	}
	if !strings.Contains(out.String(), "rescale complete") {
		return fmt.Errorf("resumed run finished without completing the rescale:\n%s", out.String())
	}
	fmt.Print(out.String())
	if st, err := persist.LoadRescale(journal); err != nil {
		return fmt.Errorf("load journal after resume: %w", err)
	} else if st.Phase != persist.RescaleDone {
		return fmt.Errorf("journal records phase %q after resume, want done", st.Phase)
	}

	// Post-cutover: a fresh coordinator dials the epoch the servers
	// report and answers byte-identically over all 8 devices.
	ncl, err := fxdist.Open(fxdist.Config{File: file, Addrs: newAddrs})
	if err != nil {
		return fmt.Errorf("dial new epoch: %w", err)
	}
	defer ncl.Close()
	return checkAnswers(ncl, pms, want, "new epoch after resume")
}

// startMidCopy starts fxnode with args, its output to out, and returns
// once journal records copy progress: ideally a partial copy set (the
// driver flushes every 64 buckets), any journal at all if the window is
// too tight on this machine.
func startMidCopy(bin string, args []string, journal string, out io.Writer) (*exec.Cmd, error) {
	cmd := exec.Command(bin, args...)
	cmd.Stdout, cmd.Stderr = out, out
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	deadline := time.Now().Add(30 * time.Second)
	partialBy := time.Now().Add(10 * time.Second)
	for {
		if st, err := persist.LoadRescale(journal); err == nil {
			if len(st.Done) > 0 || time.Now().After(partialBy) {
				return cmd, nil
			}
		}
		if time.Now().After(deadline) {
			cmd.Process.Kill()
			cmd.Wait()
			return nil, fmt.Errorf("journal %s never appeared; rescale did not start", journal)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func checkAnswers(cl *fxdist.Cluster, pms []fxdist.PartialMatch, want [][]string, what string) error {
	for i, pm := range pms {
		res, err := cl.Retrieve(pm)
		if err != nil {
			return fmt.Errorf("%s: query %d: %w", what, i, err)
		}
		got := canonical(res.Records)
		if len(got) != len(want[i]) {
			return fmt.Errorf("%s: query %d: %d records, want %d", what, i, len(got), len(want[i]))
		}
		for j := range got {
			if got[j] != want[i][j] {
				return fmt.Errorf("%s: query %d: record %d differs", what, i, j)
			}
		}
	}
	fmt.Printf("rescale_chaos: %s: %d queries byte-identical\n", what, len(pms))
	return nil
}

func canonical(recs []fxdist.Record) []string {
	out := make([]string, len(recs))
	for i, r := range recs {
		out[i] = strings.Join(r, "\x00")
	}
	sort.Strings(out)
	return out
}
