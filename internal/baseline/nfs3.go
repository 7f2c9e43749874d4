package baseline

// The NFS-v3-like comparator: a single server through which ALL data and
// metadata flow. Clients keep no cache and issue one RPC per operation;
// WRITEs are unstable (buffered in server memory and acknowledged
// immediately — NFSv3 server-side write-back) and a COMMIT on close or fsync
// flushes them to the server's local disk.
//
// The model preserves the two properties the paper observes: with no
// distributed updates there is no ordering RPC on the client, so scattered
// small-file writes are fast (xcdn-32K, where NFS3 beats original Redbud);
// but every byte crosses the single server's NIC and disk, so large files
// and many clients bottleneck (where Redbud's direct FC data path wins).

import (
	"time"

	"redbud/internal/alloc"
	"redbud/internal/blockdev"
	"redbud/internal/clock"
	"redbud/internal/fsapi"
	"redbud/internal/netsim"
	"redbud/internal/rpc"
	"redbud/internal/wire"
)

const pageSize = 4096

// NFS3Config configures the NFS server.
type NFS3Config struct {
	Disk    *blockdev.Device
	Clock   clock.Clock
	Daemons int
	// OpCost is the per-RPC server CPU cost.
	OpCost time.Duration
}

// NFS3Server is the NFS server: the namespace, a buffer cache and the
// server's local disk.
type NFS3Server struct {
	server
	ns   *namespace
	disk *blockdev.Device
	ag   *alloc.Group
	// pages is each written file's buffer cache, guarded by ns.mu.
	pages map[uint64]*pageCache
}

// pageCache is one file's server buffer cache plus its flushed extents.
type pageCache struct {
	data  map[int64][]byte // page-indexed
	dirty map[int64]bool   // pages not yet on the server disk
	spans []alloc.Span     // one per flush batch
}

// NewNFS3Server builds the server.
func NewNFS3Server(cfg NFS3Config) *NFS3Server {
	if cfg.Disk == nil {
		panic("baseline: nil NFS3 disk")
	}
	s := &NFS3Server{
		ns:    newNamespace(cfg.Clock, nfsRename),
		disk:  cfg.Disk,
		ag:    alloc.NewGroup(cfg.Disk.ID(), 0, cfg.Disk.Size()),
		pages: map[uint64]*pageCache{},
	}
	s.ns.released = func(id uint64) {
		if pc := s.pages[id]; pc != nil {
			for _, sp := range pc.spans {
				_ = s.ag.FreeSpan(sp.Off, sp.Len)
			}
		}
		delete(s.pages, id)
	}
	s.server = newServer(s.handle, s.ns.clk, cfg.Daemons, cfg.OpCost)
	return s
}

func (s *NFS3Server) handle(op uint16, body []byte) ([]byte, error) {
	switch op {
	case nfsWrite:
		var req writeReq
		if err := wire.Decode(body, &req); err != nil {
			return nil, err
		}
		s.ns.mu.Lock()
		defer s.ns.mu.Unlock()
		if err := s.ns.grow(req.ID, req.Off+int64(len(req.Data))); err != nil {
			return nil, err
		}
		// Unstable write: buffer in server memory, ack immediately.
		pc := s.pages[req.ID]
		if pc == nil {
			pc = &pageCache{data: map[int64][]byte{}, dirty: map[int64]bool{}}
			s.pages[req.ID] = pc
		}
		for _, sg := range split(req.Data, req.Off, pageSize) {
			pg := sg.off / pageSize
			if pc.data[pg] == nil {
				pc.data[pg] = make([]byte, pageSize)
			}
			copy(pc.data[pg][sg.off%pageSize:], sg.data)
			pc.dirty[pg] = true
		}
		return nil, nil

	case nfsRead:
		var req readReq
		if err := wire.Decode(body, &req); err != nil {
			return nil, err
		}
		s.ns.mu.Lock()
		defer s.ns.mu.Unlock()
		ino, err := s.ns.file(req.ID)
		if err != nil {
			return nil, err
		}
		n := min(req.N, ino.size-req.Off)
		if n <= 0 {
			return wire.Encode(&dataResp{}), nil
		}
		out := make([]byte, n)
		if pc := s.pages[req.ID]; pc != nil {
			for _, sg := range split(out, req.Off, pageSize) {
				if page := pc.data[sg.off/pageSize]; page != nil {
					copy(sg.data, page[sg.off%pageSize:])
				}
			}
		}
		return wire.Encode(&dataResp{Data: out}), nil

	case nfsCommit:
		var req handleReq
		if err := wire.Decode(body, &req); err != nil {
			return nil, err
		}
		return nil, s.commit(req.ID)
	}
	return s.ns.handle(op, body)
}

// commit flushes a file's dirty pages to the server disk as one contiguous
// span per batch.
func (s *NFS3Server) commit(id uint64) error {
	s.ns.mu.Lock()
	if _, err := s.ns.file(id); err != nil {
		s.ns.mu.Unlock()
		return err
	}
	pc := s.pages[id]
	if pc == nil || len(pc.dirty) == 0 {
		s.ns.mu.Unlock()
		return nil
	}
	buf := make([]byte, 0, len(pc.dirty)*pageSize)
	for pg := range pc.dirty {
		buf = append(buf, pc.data[pg]...)
		delete(pc.dirty, pg)
	}
	sp, err := s.ag.Alloc(int64(len(buf)), -1)
	if err != nil {
		s.ns.mu.Unlock()
		return err
	}
	pc.spans = append(pc.spans, alloc.Span{Dev: s.disk.ID(), Off: sp.Off, Len: sp.Len})
	s.ns.mu.Unlock()
	return s.disk.Write(sp.Off, buf)
}

// NFS3Client is an NFS3 mount implementing fsapi.FileSystem.
type NFS3Client struct{ *pathClient }

var _ fsapi.FileSystem = (*NFS3Client)(nil)

// NewNFS3Client mounts via an established connection. The client owns the
// RPC connection.
func NewNFS3Client(conn netsim.Conn, clk clock.Clock) *NFS3Client {
	c := &NFS3Client{newPathClient(conn, clk, nfsRename)}
	c.newFile = func(a attrResp) fsapi.File {
		return &nfsFile{fileBase: fileBase{id: a.ID, size: a.Size}, rpc: c.meta}
	}
	return c
}

// nfsFile is an open NFS file.
type nfsFile struct {
	fileBase
	rpc *rpc.Client
}

func (f *nfsFile) WriteAt(p []byte, off int64) (int, error) {
	if len(p) == 0 {
		return 0, nil
	}
	if err := f.rpc.Call(nfsWrite, &writeReq{ID: f.id, Off: off, Data: p}, nil); err != nil {
		return 0, err
	}
	f.grow(off + int64(len(p)))
	return len(p), nil
}

func (f *nfsFile) ReadAt(p []byte, off int64) (int, error) {
	var resp dataResp
	if err := f.rpc.Call(nfsRead, &readReq{ID: f.id, Off: off, N: int64(len(p))}, &resp); err != nil {
		return 0, err
	}
	copy(p, resp.Data)
	return len(resp.Data), nil
}

func (f *nfsFile) Append(p []byte) (int64, error) { return f.appendWith(p, f.WriteAt) }

func (f *nfsFile) Sync() error {
	return f.rpc.Call(nfsCommit, &handleReq{ID: f.id}, nil)
}

// Close sends COMMIT: NFSv3 close-to-open consistency flushes on close.
func (f *nfsFile) Close() error { return f.Sync() }
