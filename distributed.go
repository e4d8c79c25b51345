package fxdist

import (
	"io"
	"time"

	"fxdist/internal/decluster"
	"fxdist/internal/netdist"
	"fxdist/internal/persist"
	"fxdist/internal/storage"
)

// AllocatorSpec is a serializable allocator description — everything a
// remote device server or a snapshot needs to rebuild the same
// bucket-to-device mapping.
type AllocatorSpec = decluster.Spec

// DescribeAllocator extracts a spec from an FX, Modulo or GDM allocator.
func DescribeAllocator(a Allocator) (AllocatorSpec, error) {
	return decluster.SpecOf(a)
}

// BuildAllocator reconstructs the allocator a spec describes.
func BuildAllocator(spec AllocatorSpec) (GroupAllocator, error) {
	return spec.Build()
}

// DeviceServer is one device's TCP frontend in a distributed deployment:
// it holds that device's bucket partition and answers partial match
// queries using per-device inverse mapping.
type DeviceServer = netdist.Server

// Coordinator fans partial match queries out to device servers and merges
// the results.
type Coordinator = netdist.Coordinator

// DeviceError carries the failing device's id, server address and
// pipelined wire request id when a distributed retrieval fails; match
// with errors.As to correlate failures with the per-device failover and
// error counters.
type DeviceError = netdist.DeviceError

// ErrRequestTimeout marks a per-device request that exceeded the
// coordinator's timeout; match with errors.Is.
var ErrRequestTimeout = netdist.ErrTimeout

// Partition is the records one device holds, keyed by linear bucket
// index — what PartitionFile returns per device and a device server is
// built from. A plain map[int][]Record is assignable to it.
type Partition = storage.Partition

// NewDeviceServer builds a device server from an allocator spec and the
// device's bucket partition (see PartitionFile).
func NewDeviceServer(deviceID int, spec AllocatorSpec, buckets map[int][]Record) (*DeviceServer, error) {
	return netdist.NewServer(deviceID, spec, buckets)
}

// PartitionFile splits a file's non-empty buckets into per-device
// partitions under the allocator, keyed by linear bucket index.
func PartitionFile(file *File, alloc GroupAllocator) ([]Partition, error) {
	return storage.Split(file, alloc)
}

// DeployLocal partitions the file and starts one device server per device
// on loopback TCP listeners; addrs[i] serves device i. Call stop to shut
// everything down.
func DeployLocal(file *File, alloc GroupAllocator) (addrs []string, stop func(), err error) {
	return netdist.Deploy(file, alloc)
}

// NewReplicatedDeviceServer builds a device server that also holds the
// backup partition of its ring predecessor (chained declustering over
// TCP), which is what lets a cluster opened WithFailover survive a
// server's death.
func NewReplicatedDeviceServer(deviceID int, spec AllocatorSpec, primary, backup map[int][]Record) (*DeviceServer, error) {
	return netdist.NewReplicatedServer(deviceID, spec, primary, backup)
}

// DeployReplicatedLocal is DeployLocal with chained replication: each
// server holds its primary partition plus its predecessor's backup, and
// a cluster opened WithFailover survives any single server death.
func DeployReplicatedLocal(file *File, alloc GroupAllocator) (addrs []string, stop func(), err error) {
	return netdist.DeployReplicated(file, alloc)
}

// DialOption configures dialing a distributed cluster (see
// WithDialTimeout on Open, or the deprecated DialCluster).
type DialOption = netdist.DialOption

// WithRequestTimeout bounds each per-device request; zero (the default)
// waits indefinitely. Library API for RescaleConfig.DialOptions; Open
// lowers WithDialTimeout onto it (TestPublicReplicatedFailover).
func WithRequestTimeout(d time.Duration) DialOption {
	return netdist.WithTimeout(d)
}

// WithDialInjector installs a fault injector on a dialed coordinator's
// per-device requests — the DialOption form of WithFaultInjector, for
// coordinators dialed outside Open (e.g. RescaleConfig.DialOptions, so
// chaos schedules also hit the migration stream and the window's reads).
// Library API, exercised by TestRescaleGrowUnderFaults.
func WithDialInjector(in *FaultInjector) DialOption {
	return netdist.WithInjector(in)
}

// SaveSnapshot writes the file — and, when alloc is non-nil, its
// allocator spec — to w as a self-contained snapshot.
func SaveSnapshot(w io.Writer, file *File, alloc Allocator) error {
	return persist.Save(w, file, alloc)
}

// LoadSnapshot restores a file (and allocator, if one was stored) from r.
// Files built with custom field hashes must pass the same WithFieldHash
// options here.
func LoadSnapshot(r io.Reader, opts ...FileOption) (*File, GroupAllocator, error) {
	return persist.Load(r, opts...)
}

// SaveSnapshotFile and LoadSnapshotFile are the path-based variants
// (atomic write via temp file + rename).
func SaveSnapshotFile(path string, file *File, alloc Allocator) error {
	return persist.SaveFile(path, file, alloc)
}

// LoadSnapshotFile restores a snapshot from a path.
func LoadSnapshotFile(path string, opts ...FileOption) (*File, GroupAllocator, error) {
	return persist.LoadFile(path, opts...)
}
