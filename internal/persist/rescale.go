package persist

import (
	"encoding/gob"
	"fmt"
	"os"

	"fxdist/internal/decluster"
)

// rescaleVersion guards the journal format.
const rescaleVersion = 1

// Rescale phases recorded in the journal. The driver moves strictly
// forward through copying → verified → done, or sideways to aborted. A
// driver resumed at copying re-copies only the buckets not marked done
// and proves the copy; one resumed at verified (a journal from before
// that phase named it "dual-read") is past the proof and replays the
// swap, the guard and the cutover broadcast.
const (
	RescaleCopying  = "copying"
	RescaleVerified = "verified"
	RescaleDone     = "done"
	RescaleAborted  = "aborted"
)

// RescaleState is the crash-safe record of one elastic rescale: enough
// to rebuild the plan (both specs), the phase reached, and the set of
// buckets already copied to their new owners. A coordinator killed
// mid-migration reloads it and resumes; install is idempotent, so a
// bucket copied twice around a crash is harmless.
type RescaleState struct {
	Version int
	// OldSpec and NewSpec reconstruct the allocator pair.
	OldSpec, NewSpec decluster.Spec
	// Phase is one of the Rescale* constants.
	Phase string
	// Done lists the linear bucket indices whose copy is complete.
	Done []int
}

// SaveRescale writes the journal atomically (temp file + rename), so a
// crash mid-flush leaves the previous journal intact.
func SaveRescale(path string, st *RescaleState) error {
	st.Version = rescaleVersion
	tmp, err := os.CreateTemp(dirOf(path), ".fxdist-rescale-*")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name())
	if err := gob.NewEncoder(tmp).Encode(st); err != nil {
		tmp.Close()
		return fmt.Errorf("persist: encode rescale journal: %w", err)
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	return os.Rename(tmp.Name(), path)
}

// LoadRescale restores a rescale journal. A missing file returns
// os.ErrNotExist (match with errors.Is): no rescale was in flight.
func LoadRescale(path string) (*RescaleState, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var st RescaleState
	if err := gob.NewDecoder(f).Decode(&st); err != nil {
		return nil, fmt.Errorf("persist: decode rescale journal: %w", err)
	}
	if st.Version != rescaleVersion {
		return nil, fmt.Errorf("persist: rescale journal version %d, this build reads %d", st.Version, rescaleVersion)
	}
	return &st, nil
}
