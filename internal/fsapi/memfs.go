package fsapi

import (
	"fmt"
	"sync"
	"time"

	"redbud/internal/clock"
)

// MemFS is an in-memory reference implementation of FileSystem. It exists
// for two jobs: driving the workload engine in unit tests, and serving as
// the oracle in differential tests (run the same operation stream against
// Redbud and MemFS, compare every byte).
type MemFS struct {
	clk    clock.Clock
	mu     sync.Mutex
	nodes  map[string]*memNode // path -> node; "" is the root dir
	closed bool
}

type memNode struct {
	dir   bool
	data  []byte
	size  int64
	mtime time.Time
}

// NewMemFS returns an empty file system stamping mtimes from the wall clock.
func NewMemFS() *MemFS {
	return NewMemFSWithClock(clock.Real(1))
}

// NewMemFSWithClock returns an empty file system stamping mtimes from clk.
// Differential tests must inject the simulation clock here: otherwise memfs
// mtimes read the wall clock and two runs of the same op stream diverge.
func NewMemFSWithClock(clk clock.Clock) *MemFS {
	return &MemFS{clk: clk, nodes: map[string]*memNode{"": {dir: true}}}
}

// norm canonicalizes a path to its joined components.
func norm(path string) string {
	parts := SplitPath(path)
	out := ""
	for i, p := range parts {
		if i > 0 {
			out += "/"
		}
		out += p
	}
	return out
}

// parent returns the parent path of a normalized path.
func parent(np string) string {
	for i := len(np) - 1; i >= 0; i-- {
		if np[i] == '/' {
			return np[:i]
		}
	}
	return ""
}

// Create makes a new regular file.
func (m *MemFS) Create(path string) (File, error) {
	np := norm(path)
	if np == "" {
		return nil, fmt.Errorf("%w: %q", ErrIsDir, path)
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return nil, ErrClosed
	}
	if p := m.nodes[parent(np)]; p == nil || !p.dir {
		return nil, fmt.Errorf("%w: parent of %q", ErrNotExist, path)
	}
	if m.nodes[np] != nil {
		return nil, fmt.Errorf("%w: %q", ErrExist, path)
	}
	n := &memNode{mtime: m.clk.Now()}
	m.nodes[np] = n
	return &memFile{fs: m, node: n}, nil
}

// Open opens an existing file.
func (m *MemFS) Open(path string) (File, error) {
	np := norm(path)
	m.mu.Lock()
	defer m.mu.Unlock()
	n := m.nodes[np]
	if n == nil {
		return nil, fmt.Errorf("%w: %q", ErrNotExist, path)
	}
	if n.dir {
		return nil, fmt.Errorf("%w: %q", ErrIsDir, path)
	}
	return &memFile{fs: m, node: n}, nil
}

// Mkdir creates a directory.
func (m *MemFS) Mkdir(path string) error {
	np := norm(path)
	if np == "" {
		return fmt.Errorf("%w: /", ErrExist)
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if p := m.nodes[parent(np)]; p == nil || !p.dir {
		return fmt.Errorf("%w: parent of %q", ErrNotExist, path)
	}
	if m.nodes[np] != nil {
		return fmt.Errorf("%w: %q", ErrExist, path)
	}
	m.nodes[np] = &memNode{dir: true, mtime: m.clk.Now()}
	return nil
}

// Remove unlinks a file or empty directory.
func (m *MemFS) Remove(path string) error {
	np := norm(path)
	m.mu.Lock()
	defer m.mu.Unlock()
	n := m.nodes[np]
	if n == nil {
		return fmt.Errorf("%w: %q", ErrNotExist, path)
	}
	if n.dir {
		for other := range m.nodes {
			if other != np && len(other) > len(np) && other[:len(np)] == np && other[len(np)] == '/' {
				return fmt.Errorf("%w: %q", ErrNotEmpty, path)
			}
		}
	}
	delete(m.nodes, np)
	return nil
}

// Rename moves a node (and, for directories, its whole subtree).
func (m *MemFS) Rename(oldPath, newPath string) error {
	op, np := norm(oldPath), norm(newPath)
	if op == "" || np == "" {
		return fmt.Errorf("%w: cannot rename the root", ErrInvalid)
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	n := m.nodes[op]
	if n == nil {
		return fmt.Errorf("%w: %q", ErrNotExist, oldPath)
	}
	if p := m.nodes[parent(np)]; p == nil || !p.dir {
		return fmt.Errorf("%w: parent of %q", ErrNotExist, newPath)
	}
	if m.nodes[np] != nil {
		return fmt.Errorf("%w: %q", ErrExist, newPath)
	}
	if n.dir && len(np) > len(op) && np[:len(op)] == op && np[len(op)] == '/' {
		return fmt.Errorf("%w: cannot move %q into its own subtree", ErrInvalid, oldPath)
	}
	// Move the node and every descendant key.
	moves := map[string]string{op: np}
	prefix := op + "/"
	for other := range m.nodes {
		if len(other) > len(prefix) && other[:len(prefix)] == prefix {
			moves[other] = np + other[len(op):]
		}
	}
	for from, to := range moves {
		m.nodes[to] = m.nodes[from]
		delete(m.nodes, from)
	}
	return nil
}

// Stat describes a path.
func (m *MemFS) Stat(path string) (Info, error) {
	np := norm(path)
	m.mu.Lock()
	defer m.mu.Unlock()
	n := m.nodes[np]
	if n == nil {
		return Info{}, fmt.Errorf("%w: %q", ErrNotExist, path)
	}
	name := np
	for i := len(np) - 1; i >= 0; i-- {
		if np[i] == '/' {
			name = np[i+1:]
			break
		}
	}
	if np == "" {
		name = "/"
	}
	return Info{Name: name, Size: n.size, Dir: n.dir, MTime: n.mtime}, nil
}

// ReadDir lists a directory.
func (m *MemFS) ReadDir(path string) ([]Info, error) {
	np := norm(path)
	m.mu.Lock()
	defer m.mu.Unlock()
	n := m.nodes[np]
	if n == nil {
		return nil, fmt.Errorf("%w: %q", ErrNotExist, path)
	}
	if !n.dir {
		return nil, fmt.Errorf("%w: %q is not a directory", ErrInvalid, path)
	}
	var out []Info
	prefix := np
	if prefix != "" {
		prefix += "/"
	}
	for other, node := range m.nodes {
		if other == np || len(other) <= len(prefix) || other[:len(prefix)] != prefix {
			continue
		}
		rest := other[len(prefix):]
		direct := true
		for i := 0; i < len(rest); i++ {
			if rest[i] == '/' {
				direct = false
				break
			}
		}
		if direct {
			out = append(out, Info{Name: rest, Size: node.size, Dir: node.dir, MTime: node.mtime})
		}
	}
	return out, nil
}

// Close marks the file system closed.
func (m *MemFS) Close() error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return ErrClosed
	}
	m.closed = true
	return nil
}

var _ FileSystem = (*MemFS)(nil)

// memFile is an open MemFS file.
type memFile struct {
	fs   *MemFS
	node *memNode
}

func (f *memFile) WriteAt(p []byte, off int64) (int, error) {
	if off < 0 {
		return 0, fmt.Errorf("%w: negative offset %d", ErrInvalid, off)
	}
	f.fs.mu.Lock()
	defer f.fs.mu.Unlock()
	end := off + int64(len(p))
	if end > int64(len(f.node.data)) {
		grown := make([]byte, end)
		copy(grown, f.node.data)
		f.node.data = grown
	}
	copy(f.node.data[off:end], p)
	if end > f.node.size {
		f.node.size = end
	}
	f.node.mtime = f.fs.clk.Now()
	return len(p), nil
}

func (f *memFile) ReadAt(p []byte, off int64) (int, error) {
	if off < 0 {
		return 0, fmt.Errorf("%w: negative offset %d", ErrInvalid, off)
	}
	f.fs.mu.Lock()
	defer f.fs.mu.Unlock()
	if off >= f.node.size {
		return 0, nil
	}
	n := int64(len(p))
	if off+n > f.node.size {
		n = f.node.size - off
	}
	copy(p[:n], f.node.data[off:off+n])
	return int(n), nil
}

func (f *memFile) Append(p []byte) (int64, error) {
	f.fs.mu.Lock()
	off := f.node.size
	f.fs.mu.Unlock()
	if _, err := f.WriteAt(p, off); err != nil {
		return 0, err
	}
	return off, nil
}

func (f *memFile) Size() int64 {
	f.fs.mu.Lock()
	defer f.fs.mu.Unlock()
	return f.node.size
}

func (f *memFile) Sync() error  { return nil }
func (f *memFile) Close() error { return nil }
