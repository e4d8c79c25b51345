package netdist

import (
	"fmt"
	"net"

	"fxdist/internal/decluster"
	"fxdist/internal/mkhash"
	"fxdist/internal/query"
)

// Replicated deployment: each device server also holds the backup copy of
// its ring predecessor's partition (chained declustering over TCP). When
// a device server dies, a coordinator dialed WithFailover re-asks its
// ring successor to answer *as* the dead device, so retrievals survive
// any single server failure with no data loss.

// NewReplicatedServer builds a device server that holds its own primary
// partition plus the backup of device (deviceID-1+M)%M. Both partitions
// are validated against the allocator spec.
func NewReplicatedServer(deviceID int, spec decluster.Spec, primary, backup map[int][]mkhash.Record) (*Server, error) {
	srv, err := NewServer(deviceID, spec, primary)
	if err != nil {
		return nil, err
	}
	prev := (deviceID - 1 + srv.fs.M) % srv.fs.M
	alloc := srv.im.Allocator()
	var coords []int
	for idx := range backup {
		if idx < 0 || idx >= srv.fs.NumBuckets() {
			return nil, fmt.Errorf("netdist: backup bucket index %d outside grid", idx)
		}
		coords = srv.fs.Coords(idx, coords[:0])
		if dev := alloc.Device(coords); dev != prev {
			return nil, fmt.Errorf("netdist: backup bucket %v belongs to device %d, not ring predecessor %d", coords, dev, prev)
		}
	}
	srv.backup = backup
	srv.backupFor = prev
	srv.hasBackup = true
	return srv, nil
}

// answerAs runs one query against the backup partition, impersonating the
// failed ring predecessor.
func (s *Server) answerAs(req Request) Response {
	s.dataMu.RLock()
	defer s.dataMu.RUnlock()
	if !s.hasBackup || req.AsDevice != s.backupFor {
		return Response{ID: req.ID, Err: fmt.Sprintf("netdist: device %d holds no backup for device %d", s.deviceID, req.AsDevice)}
	}
	if req.Epoch != s.epoch {
		// Backup partitions are not re-declustered live; replicated
		// deployments sit out rescales (Prepare refuses them).
		return Response{ID: req.ID, Err: fmt.Sprintf("netdist: backup partition serves epoch %d only, not %d", s.epoch, req.Epoch)}
	}
	q := query.New(req.Spec)
	if err := q.Validate(s.fs); err != nil {
		return Response{ID: req.ID, Err: err.Error()}
	}
	if len(req.Values) != s.fs.NumFields() || len(req.Specified) != s.fs.NumFields() {
		return Response{ID: req.ID, Err: fmt.Sprintf("netdist: %d value filters for %d fields", len(req.Values), s.fs.NumFields())}
	}
	resp := Response{ID: req.ID}
	s.im.EachOnDevice(q, s.backupFor, func(coords []int) {
		resp.Buckets++
		for _, r := range s.backup[s.fs.Linear(coords)] {
			resp.Scanned++
			if valueMatch(req, r) {
				resp.Records = serverHits.AppendOne(resp.Records, r)
			}
		}
	})
	return resp
}

// DeployReplicated partitions the file, starts one replicated Server per
// device on loopback listeners (each holding its primary partition and
// its predecessor's backup), and returns the addresses plus a stop
// function.
func DeployReplicated(file *mkhash.File, alloc decluster.GroupAllocator) (addrs []string, stop func(), err error) {
	spec, err := decluster.SpecOf(alloc)
	if err != nil {
		return nil, nil, err
	}
	parts, err := Partition(file, alloc)
	if err != nil {
		return nil, nil, err
	}
	m := len(parts)
	servers := make([]*Server, 0, m)
	cleanup := func() {
		for _, s := range servers {
			s.Close()
		}
	}
	for dev := 0; dev < m; dev++ {
		prev := (dev - 1 + m) % m
		srv, err := NewReplicatedServer(dev, spec, parts[dev], parts[prev])
		if err != nil {
			cleanup()
			return nil, nil, err
		}
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			cleanup()
			return nil, nil, err
		}
		servers = append(servers, srv)
		addrs = append(addrs, l.Addr().String())
		go srv.Serve(l) //nolint:errcheck // ends when srv.Close closes l
	}
	return addrs, cleanup, nil
}
