package netdist

import (
	"fmt"

	"fxdist/internal/decluster"
	"fxdist/internal/storage"
)

// Replicated deployment: each device server also holds the backup copy of
// its ring predecessor's partition (chained declustering over TCP). When
// a device server dies, a coordinator dialed WithFailover re-asks its
// ring successor to answer *as* the dead device, so retrievals survive
// any single server failure with no data loss.

// NewReplicatedServer builds a device server that holds its own primary
// partition plus the backup of device (deviceID-1+M)%M. Both partitions
// are admitted against the allocator spec.
func NewReplicatedServer(deviceID int, spec decluster.Spec, primary, backup storage.Partition) (*Server, error) {
	srv, err := NewServer(deviceID, spec, primary)
	if err != nil {
		return nil, err
	}
	m := srv.cur.fs.M
	if srv.backup, err = newView((deviceID-1+m)%m, spec, backup); err == nil {
		err = srv.backup.admit(backup)
	}
	if err != nil {
		return nil, fmt.Errorf("netdist: backup %w", err)
	}
	return srv, nil
}
