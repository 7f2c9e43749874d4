// Package fsapi defines the file-system interface shared by every system
// under evaluation — Redbud (sync or delayed commit), the NFS3-like
// baseline, and the PVFS2-like baseline — so a single workload engine
// (internal/workload) can drive them interchangeably, exactly as the paper
// runs Filebench/xcdn/NPB against four configurations.
package fsapi

import (
	"errors"
	"time"
)

// Errors shared across implementations: the one error vocabulary. Every
// file system reports a failure of one of these kinds by wrapping its
// sentinel, and a refusal that crossed the wire unwraps to it too, so callers
// branch with errors.Is and never on a message.
var (
	ErrNotExist = errors.New("fsapi: file does not exist")
	ErrExist    = errors.New("fsapi: file already exists")
	ErrIsDir    = errors.New("fsapi: is a directory")
	ErrNotEmpty = errors.New("fsapi: directory not empty")
	// ErrInvalid reports an operation its argument does not admit: a bad
	// name, the root renamed, a directory moved into its own subtree, a
	// file listed as a directory, a negative offset.
	ErrInvalid = errors.New("fsapi: invalid argument")
	ErrClosed  = errors.New("fsapi: file system closed")
)

// codes is the fixed table a refusal's identity crosses the wire by: the
// sentinel at index i travels as code i+1 (see Code). Append only; a shipped
// code keeps its meaning.
var codes = [...]error{ErrNotExist, ErrExist, ErrIsDir, ErrNotEmpty, ErrInvalid, ErrClosed}

// Code returns the code of the sentinel err wraps, or 0 if it wraps none.
func Code(err error) uint16 {
	for i, s := range codes {
		if errors.Is(err, s) {
			return uint16(i + 1)
		}
	}
	return 0
}

// FromCode returns the sentinel with code c: nil for 0, and for a code this
// build does not know.
func FromCode(c uint16) error {
	if c == 0 || int(c) > len(codes) {
		return nil
	}
	return codes[c-1]
}

// Info describes a file or directory.
type Info struct {
	Name  string
	Size  int64
	Dir   bool
	MTime time.Time
}

// File is an open file handle.
//
// Error reporting under delayed commit is asynchronous, as write(2) is over a
// page cache: a WriteAt or Append that returned nil may still fail behind the
// application — a device write error, or an allocation the metadata server
// refuses (no space) now that space is allocated write-behind. Such a failure
// surfaces at the file's next WriteAt, Append, Sync or Close; nothing of the
// failed write is ever committed. (Writes to a file another client removed
// meanwhile are dropped without an error, like their commit would be.) An
// application that must know calls Sync.
type File interface {
	// WriteAt writes p at offset off, extending the file as needed.
	WriteAt(p []byte, off int64) (int, error)
	// ReadAt reads len(p) bytes at off; short reads at EOF return the
	// count actually read with a nil error (files are sparse; holes read
	// as zeros up to the file size).
	ReadAt(p []byte, off int64) (int, error)
	// Append writes p at the current end of file and returns the offset
	// the data landed at.
	Append(p []byte) (int64, error)
	// Size returns the file size as seen by this handle (including
	// locally buffered writes).
	Size() int64
	// Sync forces the file durable: data flushed and metadata committed.
	Sync() error
	// Close releases the handle. Under delayed commit this does NOT block
	// on pending commits — the measured close-latency win of §V-C.
	Close() error
}

// CollectiveBlock is one rank's contribution to an MPI-IO collective write.
type CollectiveBlock struct {
	Off  int64
	Data []byte
}

// CollectiveWriter is implemented by files supporting two-phase collective
// I/O (the PVFS2 baseline); the BT-IO workload uses it when present.
type CollectiveWriter interface {
	WriteCollective(blocks []CollectiveBlock) error
}

// FileSystem is a mounted client view.
type FileSystem interface {
	// Create makes a new regular file. Parent directories must exist.
	Create(path string) (File, error)
	// Open opens an existing regular file.
	Open(path string) (File, error)
	// Mkdir creates a directory. Parent directories must exist.
	Mkdir(path string) error
	// Remove unlinks a file or empty directory.
	Remove(path string) error
	// Rename moves a file or directory to a new path whose parent exists;
	// the destination must not already exist.
	Rename(oldPath, newPath string) error
	// Stat describes a path.
	Stat(path string) (Info, error)
	// ReadDir lists a directory.
	ReadDir(path string) ([]Info, error)
	// Close unmounts: flushes dirty state, drains pending commits, and
	// releases resources.
	Close() error
}

// SplitPath splits a slash-separated absolute path into components,
// ignoring empty segments. "/" yields nil.
func SplitPath(path string) []string {
	var parts []string
	start := -1
	for i := 0; i <= len(path); i++ {
		if i == len(path) || path[i] == '/' {
			if start >= 0 {
				parts = append(parts, path[start:i])
				start = -1
			}
		} else if start < 0 {
			start = i
		}
	}
	return parts
}
