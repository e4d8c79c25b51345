package persist

import (
	"encoding/gob"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"fxdist/internal/decluster"
)

func TestRescaleJournalRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "rescale.journal")
	st := &RescaleState{
		OldSpec: decluster.Spec{Sizes: []int{8, 4}, M: 4, Method: decluster.MethodModulo},
		NewSpec: decluster.Spec{Sizes: []int{8, 4}, M: 8, Method: decluster.MethodModulo},
		Phase:   RescaleCopying,
		Done:    []int{0, 3, 17},
	}
	if err := SaveRescale(path, st); err != nil {
		t.Fatal(err)
	}
	got, err := LoadRescale(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Phase != RescaleCopying || !reflect.DeepEqual(got.Done, st.Done) {
		t.Fatalf("got %+v", got)
	}
	if !reflect.DeepEqual(got.OldSpec, st.OldSpec) || !reflect.DeepEqual(got.NewSpec, st.NewSpec) {
		t.Fatalf("specs did not round trip: %+v", got)
	}
	if got.Version != 1 {
		t.Fatalf("version %d", got.Version)
	}

	// Overwrite in place (the driver's periodic flush) and reload.
	st.Phase = RescaleVerified
	st.Done = append(st.Done, 21)
	if err := SaveRescale(path, st); err != nil {
		t.Fatal(err)
	}
	got, err = LoadRescale(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Phase != RescaleVerified || len(got.Done) != 4 {
		t.Fatalf("flush not visible: %+v", got)
	}
}

func TestRescaleJournalMissingFile(t *testing.T) {
	_, err := LoadRescale(filepath.Join(t.TempDir(), "absent.journal"))
	if !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("got %v, want os.ErrNotExist", err)
	}
}

func TestRescaleJournalVersionCheck(t *testing.T) {
	path := filepath.Join(t.TempDir(), "rescale.journal")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := gob.NewEncoder(f).Encode(&RescaleState{Version: 99, Phase: RescaleDone}); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadRescale(path); err == nil || !strings.Contains(err.Error(), "version") {
		t.Fatalf("future-versioned journal accepted: %v", err)
	}
}

func TestRescaleJournalCorruptFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "rescale.journal")
	if err := os.WriteFile(path, []byte("not a gob stream"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadRescale(path); err == nil {
		t.Fatal("corrupt journal accepted")
	}
}

// TestRescaleJournalAtomicSave: the temp file used for the atomic
// rename must not linger after a successful save.
func TestRescaleJournalAtomicSave(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "rescale.journal")
	if err := SaveRescale(path, &RescaleState{Phase: RescaleCopying}); err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if strings.HasPrefix(e.Name(), ".fxdist-rescale-") {
			t.Fatalf("temp file %s left behind", e.Name())
		}
	}
}
