package baseline

// The PVFS2/OrangeFS-like comparator: a user-level parallel file system with
// one metadata server and several data servers. Clients keep no cache; every
// operation is synchronous; file data travels over the Ethernet to the data
// servers (no direct-attached FC path, unlike Redbud), striped round-robin in
// 64 KiB units.
//
// Its redeeming strength — the one the paper measures on NPB BT-IO — is
// MPI-IO-style collective I/O: WriteCollective aggregates many small
// interleaved rank blocks into large stripe-aligned transfers issued to all
// data servers in parallel (two-phase I/O).

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"redbud/internal/alloc"
	"redbud/internal/blockdev"
	"redbud/internal/clock"
	"redbud/internal/fsapi"
	"redbud/internal/netsim"
	"redbud/internal/rpc"
	"redbud/internal/wire"
)

// StripeUnit is the PVFS2 striping granularity.
const StripeUnit = 64 << 10

// PVFS2MetaServer is the PVFS2 metadata server: the namespace plus SETSIZE.
type PVFS2MetaServer struct {
	server
	ns *namespace
}

// NewPVFS2MetaServer builds the metadata server.
func NewPVFS2MetaServer(clk clock.Clock, daemons int, opCost time.Duration) *PVFS2MetaServer {
	s := &PVFS2MetaServer{ns: newNamespace(clk, pvfsRename)}
	s.server = newServer(s.handle, s.ns.clk, daemons, opCost)
	return s
}

func (s *PVFS2MetaServer) handle(op uint16, body []byte) ([]byte, error) {
	if op != pvfsSetSize {
		return s.ns.handle(op, body)
	}
	var req setSizeReq
	if err := wire.Decode(body, &req); err != nil {
		return nil, err
	}
	s.ns.mu.Lock()
	defer s.ns.mu.Unlock()
	return nil, s.ns.grow(req.ID, req.Size)
}

// PVFS2DataServer is one PVFS2 I/O daemon with a local disk. It stores stripe
// chunks of files, allocating physical space per chunk on first write
// (writes go through to disk — PVFS2 has no server write-back for data).
type PVFS2DataServer struct {
	server
	disk *blockdev.Device
	ag   *alloc.Group

	mu     sync.Mutex
	chunks map[uint64]map[int64]alloc.Span // file -> chunk index -> physical
}

// NewPVFS2DataServer builds a data server over its local disk.
func NewPVFS2DataServer(disk *blockdev.Device, clk clock.Clock, daemons int) *PVFS2DataServer {
	if disk == nil {
		panic("baseline: nil PVFS2 disk")
	}
	s := &PVFS2DataServer{
		disk:   disk,
		ag:     alloc.NewGroup(disk.ID(), 0, disk.Size()),
		chunks: make(map[uint64]map[int64]alloc.Span),
	}
	s.server = newServer(s.handle, clk, daemons, 0)
	return s
}

// place returns (allocating if needed) the physical span of a file chunk.
func (s *PVFS2DataServer) place(file uint64, chunk int64) (alloc.Span, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	m := s.chunks[file]
	if m == nil {
		m = make(map[int64]alloc.Span)
		s.chunks[file] = m
	}
	if sp, ok := m[chunk]; ok {
		return sp, nil
	}
	g, err := s.ag.Alloc(StripeUnit, -1)
	if err != nil {
		return alloc.Span{}, err
	}
	sp := alloc.Span{Dev: s.disk.ID(), Off: g.Off, Len: g.Len}
	m[chunk] = sp
	return sp, nil
}

func (s *PVFS2DataServer) handle(op uint16, body []byte) ([]byte, error) {
	switch op {
	case pvfsDataWrite:
		var req writeReq
		if err := wire.Decode(body, &req); err != nil {
			return nil, err
		}
		// The request may span several chunks; write each part through
		// to disk synchronously.
		for _, sg := range split(req.Data, req.Off, StripeUnit) {
			sp, err := s.place(req.ID, sg.off/StripeUnit)
			if err != nil {
				return nil, err
			}
			if err := s.disk.Write(sp.Off+sg.off%StripeUnit, sg.data); err != nil {
				return nil, err
			}
		}
		return nil, nil

	case pvfsDataRead:
		var req readReq
		if err := wire.Decode(body, &req); err != nil {
			return nil, err
		}
		out := make([]byte, req.N)
		for _, sg := range split(out, req.Off, StripeUnit) {
			s.mu.Lock()
			sp, ok := s.chunks[req.ID][sg.off/StripeUnit]
			s.mu.Unlock()
			if !ok {
				continue
			}
			part, err := s.disk.Read(sp.Off+sg.off%StripeUnit, int64(len(sg.data)))
			if err != nil {
				return nil, err
			}
			copy(sg.data, part)
		}
		return wire.Encode(&dataResp{Data: out}), nil

	case pvfsDataRemove:
		var req handleReq
		if err := wire.Decode(body, &req); err != nil {
			return nil, err
		}
		s.mu.Lock()
		for _, sp := range s.chunks[req.ID] {
			_ = s.ag.FreeSpan(sp.Off, sp.Len)
		}
		delete(s.chunks, req.ID)
		s.mu.Unlock()
		return nil, nil
	}
	return nil, fmt.Errorf("baseline: unknown PVFS2 data op %d", op)
}

// PVFS2Client is a PVFS2 mount: one connection to the metadata server and one
// to each data server. It implements fsapi.FileSystem.
type PVFS2Client struct {
	*pathClient
	data []*rpc.Client
}

var _ fsapi.FileSystem = (*PVFS2Client)(nil)

// NewPVFS2Client assembles a mount from established connections. The client
// owns them all.
func NewPVFS2Client(metaConn netsim.Conn, dataConns []netsim.Conn, clk clock.Clock) *PVFS2Client {
	if len(dataConns) == 0 {
		panic("baseline: PVFS2 needs at least one data server")
	}
	c := &PVFS2Client{pathClient: newPathClient(metaConn, clk, pvfsRename)}
	for _, conn := range dataConns {
		d := rpc.NewClient(conn, clk)
		c.data = append(c.data, d)
		c.conns = append(c.conns, d)
	}
	c.newFile = func(a attrResp) fsapi.File {
		return &pvfsFile{fileBase: fileBase{id: a.ID, size: a.Size}, c: c}
	}
	return c
}

// Remove unlinks a path on the metadata server and frees its stripes.
func (c *PVFS2Client) Remove(path string) error {
	a, err := c.resolve(path)
	if err != nil {
		return err
	}
	if err := c.pathClient.Remove(path); err != nil {
		return err
	}
	if !a.Dir {
		for _, ds := range c.data {
			_ = ds.Call(pvfsDataRemove, &handleReq{ID: a.ID}, nil)
		}
	}
	return nil
}

// stripes issues call for every stripe of the transfer of p at off, each on
// its data server, in parallel, and returns the first error.
func (c *PVFS2Client) stripes(p []byte, off int64, call func(ds *rpc.Client, sg segment) error) error {
	segs := split(p, off, StripeUnit)
	errs := make(chan error, len(segs))
	for _, sg := range segs {
		ds := c.data[(sg.off/StripeUnit)%int64(len(c.data))]
		go func() { errs <- call(ds, sg) }()
	}
	for range segs {
		if err := <-errs; err != nil {
			return err
		}
	}
	return nil
}

// pvfsFile is an open PVFS2 file.
type pvfsFile struct {
	fileBase
	c *PVFS2Client
}

// WriteAt stripes the range across the data servers, issuing the segments in
// parallel, then synchronously updates the file size at the MDS. No client
// cache: the call returns only when every server acknowledged.
func (f *pvfsFile) WriteAt(p []byte, off int64) (int, error) {
	if len(p) == 0 {
		return 0, nil
	}
	err := f.c.stripes(p, off, func(ds *rpc.Client, sg segment) error {
		return ds.Call(pvfsDataWrite, &writeReq{ID: f.id, Off: sg.off, Data: sg.data}, nil)
	})
	if err != nil {
		return 0, err
	}
	end := off + int64(len(p))
	if err := f.c.meta.Call(pvfsSetSize, &setSizeReq{ID: f.id, Size: end}, nil); err != nil {
		return 0, err
	}
	f.grow(end)
	return len(p), nil
}

// WriteCollective is the MPI-IO two-phase path: the blocks are sorted and
// coalesced into large contiguous segments before striping, so interleaved
// small rank blocks become few big parallel transfers.
func (f *pvfsFile) WriteCollective(blocks []fsapi.CollectiveBlock) error {
	if len(blocks) == 0 {
		return nil
	}
	sorted := make([]fsapi.CollectiveBlock, len(blocks))
	copy(sorted, blocks)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Off < sorted[j].Off })
	// Coalesce contiguous runs.
	var runs []fsapi.CollectiveBlock
	cur := fsapi.CollectiveBlock{Off: sorted[0].Off, Data: append([]byte(nil), sorted[0].Data...)}
	for _, b := range sorted[1:] {
		if b.Off == cur.Off+int64(len(cur.Data)) {
			cur.Data = append(cur.Data, b.Data...)
		} else {
			runs = append(runs, cur)
			cur = fsapi.CollectiveBlock{Off: b.Off, Data: append([]byte(nil), b.Data...)}
		}
	}
	runs = append(runs, cur)
	for _, run := range runs {
		if _, err := f.WriteAt(run.Data, run.Off); err != nil {
			return err
		}
	}
	return nil
}

// ReadAt reads stripes in parallel, up to the size this handle has seen.
func (f *pvfsFile) ReadAt(p []byte, off int64) (int, error) {
	n := min(int64(len(p)), f.Size()-off)
	if n <= 0 {
		return 0, nil
	}
	err := f.c.stripes(p[:n], off, func(ds *rpc.Client, sg segment) error {
		var resp dataResp
		err := ds.Call(pvfsDataRead, &readReq{ID: f.id, Off: sg.off, N: int64(len(sg.data))}, &resp)
		copy(sg.data, resp.Data)
		return err
	})
	if err != nil {
		return 0, err
	}
	return int(n), nil
}

func (f *pvfsFile) Append(p []byte) (int64, error) { return f.appendWith(p, f.WriteAt) }

// Sync is a no-op: PVFS2 writes are already through to the data servers'
// disks when WriteAt returns.
func (f *pvfsFile) Sync() error { return nil }

// Close releases the handle (nothing buffered client-side).
func (f *pvfsFile) Close() error { return nil }
