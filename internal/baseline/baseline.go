// Package baseline holds the two comparators of Figure 3, modeled on NFSv3
// (nfs3.go) and PVFS2 (pvfs2.go). Both keep no client cache and walk every
// path one LOOKUP per component against the same handle-based namespace
// server; they differ only in where file data goes. NFS3 sends it to its one
// server, which buffers it; PVFS2 stripes it over data servers, through to
// their disks.
//
// A comparator op's modeled cost is its RPC count plus its frame bytes. The
// two protocols share code and wire messages but number their procedures
// each its own way, as the systems they model do.
package baseline

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"time"

	"redbud/internal/clock"
	"redbud/internal/fsapi"
	"redbud/internal/netsim"
	"redbud/internal/rpc"
	"redbud/internal/wire"
)

// Namespace procedures, numbered alike in both protocols.
const (
	opLookup uint16 = iota + 1
	opCreate
	opMkdir
	opRemove
	opGetAttr
	opReadDir
)

// NFS3 procedures.
const (
	nfsWrite uint16 = iota + 7 // unstable write: the server buffers and acks
	nfsRead
	nfsCommit // flush buffered writes to stable storage
	nfsRename
)

// PVFS2 procedures: metadata server, then data servers.
const (
	pvfsSetSize uint16 = iota + 7
	pvfsRename
)

const (
	pvfsDataWrite uint16 = iota + 101
	pvfsDataRead
	pvfsDataRemove
)

const rootID = 1

// errStale refuses a handle that names no live inode of the kind the
// procedure wants.
var errStale = fmt.Errorf("%w: stale handle", fsapi.ErrNotExist)

// ---------------------------------------------------------------------------
// Wire messages

type handleReq struct{ ID uint64 }

func (m *handleReq) MarshalWire(b *wire.Buffer)         { b.PutU64(m.ID) }
func (m *handleReq) UnmarshalWire(r *wire.Reader) error { m.ID = r.U64(); return r.Err() }

type nameReq struct {
	Parent uint64
	Name   string
}

func (m *nameReq) MarshalWire(b *wire.Buffer) { b.PutU64(m.Parent); b.PutString(m.Name) }
func (m *nameReq) UnmarshalWire(r *wire.Reader) error {
	m.Parent = r.U64()
	m.Name = r.String()
	return r.Err()
}

type attrResp struct {
	ID   uint64
	Dir  bool
	Size int64
	MT   time.Time
}

func (m *attrResp) MarshalWire(b *wire.Buffer) {
	b.PutU64(m.ID)
	b.PutBool(m.Dir)
	b.PutI64(m.Size)
	b.PutTime(m.MT)
}

func (m *attrResp) UnmarshalWire(r *wire.Reader) error {
	m.ID = r.U64()
	m.Dir = r.Bool()
	m.Size = r.I64()
	m.MT = r.Time()
	return r.Err()
}

type renameReq struct {
	SrcParent uint64
	SrcName   string
	DstParent uint64
	DstName   string
}

func (m *renameReq) MarshalWire(b *wire.Buffer) {
	b.PutU64(m.SrcParent)
	b.PutString(m.SrcName)
	b.PutU64(m.DstParent)
	b.PutString(m.DstName)
}

func (m *renameReq) UnmarshalWire(r *wire.Reader) error {
	m.SrcParent = r.U64()
	m.SrcName = r.String()
	m.DstParent = r.U64()
	m.DstName = r.String()
	return r.Err()
}

type readDirResp struct {
	Names []string
	Dirs  []bool
}

func (m *readDirResp) MarshalWire(b *wire.Buffer) {
	b.PutU32(uint32(len(m.Names)))
	for i := range m.Names {
		b.PutString(m.Names[i])
		b.PutBool(m.Dirs[i])
	}
}

func (m *readDirResp) UnmarshalWire(r *wire.Reader) error {
	n := int(r.U32())
	for i := 0; i < n && r.Err() == nil; i++ {
		m.Names = append(m.Names, r.String())
		m.Dirs = append(m.Dirs, r.Bool())
	}
	return r.Err()
}

type setSizeReq struct {
	ID   uint64
	Size int64
}

func (m *setSizeReq) MarshalWire(b *wire.Buffer) { b.PutU64(m.ID); b.PutI64(m.Size) }
func (m *setSizeReq) UnmarshalWire(r *wire.Reader) error {
	m.ID = r.U64()
	m.Size = r.I64()
	return r.Err()
}

// writeReq is an NFS3 WRITE and a PVFS2 data-server write; Off is the
// file-global offset in both.
type writeReq struct {
	ID   uint64
	Off  int64
	Data []byte
}

func (m *writeReq) MarshalWire(b *wire.Buffer) {
	b.PutU64(m.ID)
	b.PutI64(m.Off)
	b.PutBytes(m.Data)
}

// UnmarshalWire copies Data: the PVFS2 data server hands it to its disk,
// which keeps it, while the request frame is recycled once the handler
// returns.
func (m *writeReq) UnmarshalWire(r *wire.Reader) error {
	m.ID = r.U64()
	m.Off = r.I64()
	m.Data = r.Bytes()
	return r.Err()
}

type readReq struct {
	ID  uint64
	Off int64
	N   int64
}

func (m *readReq) MarshalWire(b *wire.Buffer) {
	b.PutU64(m.ID)
	b.PutI64(m.Off)
	b.PutI64(m.N)
}

func (m *readReq) UnmarshalWire(r *wire.Reader) error {
	m.ID = r.U64()
	m.Off = r.I64()
	m.N = r.I64()
	return r.Err()
}

type dataResp struct{ Data []byte }

func (m *dataResp) MarshalWire(b *wire.Buffer) { b.PutBytes(m.Data) }

// UnmarshalWire must copy: decoded client-side, Data escapes to the reader
// while rpc.Client recycles the response frame right after wire.Decode.
func (m *dataResp) UnmarshalWire(r *wire.Reader) error { m.Data = r.Bytes(); return r.Err() }

// ---------------------------------------------------------------------------
// Namespace server

// server is the RPC front of every comparator server.
type server struct{ rpc *rpc.Server }

func newServer(h rpc.Handler, clk clock.Clock, daemons int, opCost time.Duration) server {
	if daemons <= 0 {
		daemons = 8
	}
	return server{rpc.NewServer(rpc.ServerConfig{Handler: h, Daemons: daemons, OpCost: opCost, Clock: clk})}
}

// Serve accepts connections until the listener closes.
func (s *server) Serve(l *netsim.Listener) { s.rpc.Serve(l) }

// Close stops the RPC pool.
func (s *server) Close() { s.rpc.Close() }

// inode is one namespace entry. parent is what lets a rename refuse to move a
// directory into its own subtree.
type inode struct {
	parent uint64
	dir    bool
	size   int64
	mtime  time.Time
}

// namespace is the handle-based metadata both comparators serve: PVFS2's
// metadata server is one, NFS3's server is one with a page cache in front of
// its disk.
type namespace struct {
	clk      clock.Clock
	renameOp uint16
	// released drops whatever the embedding server keeps for a removed
	// inode; called with mu held.
	released func(id uint64)

	mu      sync.Mutex
	inodes  map[uint64]*inode
	dirents map[uint64]map[string]uint64
	nextID  uint64
}

func newNamespace(clk clock.Clock, renameOp uint16) *namespace {
	if clk == nil {
		clk = clock.Real(1)
	}
	return &namespace{
		clk:      clk,
		renameOp: renameOp,
		released: func(uint64) {},
		inodes:   map[uint64]*inode{rootID: {dir: true, mtime: clk.Now()}},
		dirents:  map[uint64]map[string]uint64{rootID: {}},
		nextID:   rootID + 1,
	}
}

// attr encodes an inode's attributes. Called with mu held.
func (ns *namespace) attr(id uint64) []byte {
	ino := ns.inodes[id]
	return wire.Encode(&attrResp{ID: id, Dir: ino.dir, Size: ino.size, MT: ino.mtime})
}

// file returns a live regular file's inode. Called with mu held.
func (ns *namespace) file(id uint64) (*inode, error) {
	ino, ok := ns.inodes[id]
	if !ok || ino.dir {
		return nil, errStale
	}
	return ino, nil
}

// grow records a write ending at end: the file grows to it and its mtime is
// touched (NFS3 WRITE, PVFS2 SETSIZE). Called with mu held.
func (ns *namespace) grow(id uint64, end int64) error {
	ino, err := ns.file(id)
	if err != nil {
		return err
	}
	ino.size = max(ino.size, end)
	ino.mtime = ns.clk.Now()
	return nil
}

// handle serves the namespace procedures.
func (ns *namespace) handle(op uint16, body []byte) ([]byte, error) {
	ns.mu.Lock()
	defer ns.mu.Unlock()
	switch op {
	case opLookup:
		var req nameReq
		if err := wire.Decode(body, &req); err != nil {
			return nil, err
		}
		id, ok := ns.dirents[req.Parent][req.Name]
		if !ok {
			return nil, fmt.Errorf("%w: %q", fsapi.ErrNotExist, req.Name)
		}
		return ns.attr(id), nil

	case opCreate, opMkdir:
		var req nameReq
		if err := wire.Decode(body, &req); err != nil {
			return nil, err
		}
		dir, ok := ns.dirents[req.Parent]
		if !ok {
			return nil, errStale
		}
		if _, dup := dir[req.Name]; dup {
			return nil, fmt.Errorf("%w: %q", fsapi.ErrExist, req.Name)
		}
		id := ns.nextID
		ns.nextID++
		ns.inodes[id] = &inode{parent: req.Parent, dir: op == opMkdir, mtime: ns.clk.Now()}
		dir[req.Name] = id
		if op == opMkdir {
			ns.dirents[id] = map[string]uint64{}
		}
		return ns.attr(id), nil

	case opRemove:
		var req nameReq
		if err := wire.Decode(body, &req); err != nil {
			return nil, err
		}
		dir, ok := ns.dirents[req.Parent]
		if !ok {
			return nil, errStale
		}
		id, ok := dir[req.Name]
		if !ok {
			return nil, fmt.Errorf("%w: %q", fsapi.ErrNotExist, req.Name)
		}
		if len(ns.dirents[id]) > 0 {
			return nil, fmt.Errorf("%w: %q", fsapi.ErrNotEmpty, req.Name)
		}
		delete(dir, req.Name)
		delete(ns.inodes, id)
		delete(ns.dirents, id)
		ns.released(id)
		return nil, nil

	case opGetAttr:
		var req handleReq
		if err := wire.Decode(body, &req); err != nil {
			return nil, err
		}
		if _, ok := ns.inodes[req.ID]; !ok {
			return nil, errStale
		}
		return ns.attr(req.ID), nil

	case opReadDir:
		var req handleReq
		if err := wire.Decode(body, &req); err != nil {
			return nil, err
		}
		dir, ok := ns.dirents[req.ID]
		if !ok {
			if _, live := ns.inodes[req.ID]; live {
				return nil, fmt.Errorf("%w: handle %d is not a directory", fsapi.ErrInvalid, req.ID)
			}
			return nil, errStale
		}
		var resp readDirResp
		for name, id := range dir {
			resp.Names = append(resp.Names, name)
			resp.Dirs = append(resp.Dirs, ns.inodes[id].dir)
		}
		return wire.Encode(&resp), nil

	case ns.renameOp:
		var req renameReq
		if err := wire.Decode(body, &req); err != nil {
			return nil, err
		}
		src, ok := ns.dirents[req.SrcParent]
		if !ok {
			return nil, errStale
		}
		id, ok := src[req.SrcName]
		if !ok {
			return nil, fmt.Errorf("%w: %q", fsapi.ErrNotExist, req.SrcName)
		}
		dst, ok := ns.dirents[req.DstParent]
		if !ok {
			return nil, errStale
		}
		if _, dup := dst[req.DstName]; dup {
			return nil, fmt.Errorf("%w: %q", fsapi.ErrExist, req.DstName)
		}
		// A directory must not become its own ancestor.
		for cur := req.DstParent; cur != rootID; cur = ns.inodes[cur].parent {
			if cur == id {
				return nil, fmt.Errorf("%w: cannot move %q into its own subtree", fsapi.ErrInvalid, req.SrcName)
			}
		}
		delete(src, req.SrcName)
		dst[req.DstName] = id
		ns.inodes[id].parent = req.DstParent
		return nil, nil
	}
	return nil, fmt.Errorf("baseline: unknown op %d", op)
}

// ---------------------------------------------------------------------------
// Path-walking client

// pathClient is the client half both comparators share: no cache, every path
// component one LOOKUP at the namespace server.
type pathClient struct {
	meta     *rpc.Client   // the namespace server
	conns    []*rpc.Client // every connection the mount owns, meta first
	renameOp uint16
	newFile  func(attrResp) fsapi.File

	mu     sync.Mutex
	closed bool
}

func newPathClient(metaConn netsim.Conn, clk clock.Clock, renameOp uint16) *pathClient {
	meta := rpc.NewClient(metaConn, clk)
	return &pathClient{meta: meta, conns: []*rpc.Client{meta}, renameOp: renameOp}
}

// resolve walks a path from the root, one LOOKUP per component (NFS has no
// server-side path walk).
func (c *pathClient) resolve(path string) (attrResp, error) {
	cur := attrResp{ID: rootID, Dir: true}
	for _, name := range fsapi.SplitPath(path) {
		var next attrResp
		if err := c.meta.Call(opLookup, &nameReq{Parent: cur.ID, Name: name}, &next); err != nil {
			return attrResp{}, err
		}
		cur = next
	}
	return cur, nil
}

// resolveParent walks to a path's directory and returns it with the leaf.
func (c *pathClient) resolveParent(path string) (uint64, string, error) {
	parts := fsapi.SplitPath(path)
	if len(parts) == 0 {
		return 0, "", fmt.Errorf("%w: %q has no parent", fsapi.ErrInvalid, path)
	}
	dir, err := c.resolve(strings.Join(parts[:len(parts)-1], "/"))
	if err != nil {
		return 0, "", err
	}
	return dir.ID, parts[len(parts)-1], nil
}

// Create makes and opens a file.
func (c *pathClient) Create(path string) (fsapi.File, error) {
	parent, leaf, err := c.resolveParent(path)
	if err != nil {
		return nil, err
	}
	var a attrResp
	if err := c.meta.Call(opCreate, &nameReq{Parent: parent, Name: leaf}, &a); err != nil {
		return nil, err
	}
	return c.newFile(a), nil
}

// Open opens an existing file.
func (c *pathClient) Open(path string) (fsapi.File, error) {
	a, err := c.resolve(path)
	if err != nil {
		return nil, err
	}
	if a.Dir {
		return nil, fmt.Errorf("%w: %s", fsapi.ErrIsDir, path)
	}
	return c.newFile(a), nil
}

// Mkdir creates a directory.
func (c *pathClient) Mkdir(path string) error {
	parent, leaf, err := c.resolveParent(path)
	if err != nil {
		return err
	}
	var a attrResp
	return c.meta.Call(opMkdir, &nameReq{Parent: parent, Name: leaf}, &a)
}

// Remove unlinks a path.
func (c *pathClient) Remove(path string) error {
	parent, leaf, err := c.resolveParent(path)
	if err != nil {
		return err
	}
	return c.meta.Call(opRemove, &nameReq{Parent: parent, Name: leaf}, nil)
}

// Rename moves a directory entry.
func (c *pathClient) Rename(oldPath, newPath string) error {
	srcParent, srcLeaf, err := c.resolveParent(oldPath)
	if err != nil {
		return err
	}
	dstParent, dstLeaf, err := c.resolveParent(newPath)
	if err != nil {
		return err
	}
	return c.meta.Call(c.renameOp, &renameReq{
		SrcParent: srcParent, SrcName: srcLeaf,
		DstParent: dstParent, DstName: dstLeaf,
	}, nil)
}

// Stat describes a path.
func (c *pathClient) Stat(path string) (fsapi.Info, error) {
	a, err := c.resolve(path)
	if err != nil {
		return fsapi.Info{}, err
	}
	parts := fsapi.SplitPath(path)
	name := "/"
	if len(parts) > 0 {
		name = parts[len(parts)-1]
	}
	return fsapi.Info{Name: name, Size: a.Size, Dir: a.Dir, MTime: a.MT}, nil
}

// ReadDir lists a directory.
func (c *pathClient) ReadDir(path string) ([]fsapi.Info, error) {
	a, err := c.resolve(path)
	if err != nil {
		return nil, err
	}
	var resp readDirResp
	if err := c.meta.Call(opReadDir, &handleReq{ID: a.ID}, &resp); err != nil {
		return nil, err
	}
	out := make([]fsapi.Info, 0, len(resp.Names))
	for i := range resp.Names {
		out = append(out, fsapi.Info{Name: resp.Names[i], Dir: resp.Dirs[i]})
	}
	return out, nil
}

// Close unmounts.
func (c *pathClient) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return fsapi.ErrClosed
	}
	c.closed = true
	var errs []error
	for _, conn := range c.conns {
		errs = append(errs, conn.Close())
	}
	return errors.Join(errs...)
}

// RPCs returns the RPCs issued over every connection (harness metric).
func (c *pathClient) RPCs() int64 {
	var total int64
	for _, conn := range c.conns {
		total += conn.Calls()
	}
	return total
}

// fileBase is what both comparators' open files keep: the inode and the size
// this handle has seen.
type fileBase struct {
	id   uint64
	mu   sync.Mutex
	size int64
}

func (f *fileBase) Size() int64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.size
}

func (f *fileBase) grow(end int64) {
	f.mu.Lock()
	f.size = max(f.size, end)
	f.mu.Unlock()
}

// appendWith reserves len(p) bytes at the end of the file and writes p there.
func (f *fileBase) appendWith(p []byte, writeAt func([]byte, int64) (int, error)) (int64, error) {
	f.mu.Lock()
	off := f.size
	f.size = off + int64(len(p))
	f.mu.Unlock()
	if _, err := writeAt(p, off); err != nil {
		return 0, err
	}
	return off, nil
}

// segment is the part of a transfer that falls inside one unit.
type segment struct {
	off  int64 // file offset
	data []byte
}

// split cuts the transfer of p at off into segments at unit boundaries: the
// NFS3 server's pages, PVFS2's stripes.
func split(p []byte, off, unit int64) []segment {
	var out []segment
	for len(p) > 0 {
		n := min(unit-off%unit, int64(len(p)))
		out = append(out, segment{off: off, data: p[:n]})
		p = p[n:]
		off += n
	}
	return out
}
