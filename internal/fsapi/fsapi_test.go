package fsapi

import (
	"bytes"
	"errors"
	"fmt"
	"testing"
)

func TestSplitPath(t *testing.T) {
	cases := map[string][]string{
		"/":        nil,
		"":         nil,
		"/a":       {"a"},
		"/a/b/c":   {"a", "b", "c"},
		"a/b":      {"a", "b"},
		"//a//b//": {"a", "b"},
		"/trail/":  {"trail"},
	}
	for in, want := range cases {
		got := SplitPath(in)
		if len(got) != len(want) {
			t.Fatalf("SplitPath(%q) = %v, want %v", in, got, want)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("SplitPath(%q) = %v, want %v", in, got, want)
			}
		}
	}
}

func TestMemFSRoundTrip(t *testing.T) {
	m := NewMemFS()
	f, err := m.Create("/a.txt")
	if err != nil {
		t.Fatal(err)
	}
	data := []byte("hello memfs")
	if _, err := f.WriteAt(data, 0); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(data))
	if n, err := f.ReadAt(got, 0); err != nil || n != len(data) {
		t.Fatalf("read = %d, %v", n, err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("mismatch")
	}
	if f.Size() != int64(len(data)) {
		t.Fatalf("size = %d", f.Size())
	}
}

func TestMemFSNamespace(t *testing.T) {
	m := NewMemFS()
	if err := m.Mkdir("/d"); err != nil {
		t.Fatal(err)
	}
	if err := m.Mkdir("/d"); !errors.Is(err, ErrExist) {
		t.Fatalf("dup mkdir = %v", err)
	}
	if err := m.Mkdir("/missing/sub"); !errors.Is(err, ErrNotExist) {
		t.Fatalf("orphan mkdir = %v", err)
	}
	if _, err := m.Create("/d/f"); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Create("/d/f"); !errors.Is(err, ErrExist) {
		t.Fatalf("dup create = %v", err)
	}
	if _, err := m.Open("/d"); !errors.Is(err, ErrIsDir) {
		t.Fatalf("open dir = %v", err)
	}
	if _, err := m.Open("/ghost"); !errors.Is(err, ErrNotExist) {
		t.Fatalf("open missing = %v", err)
	}
	ents, err := m.ReadDir("/d")
	if err != nil || len(ents) != 1 || ents[0].Name != "f" {
		t.Fatalf("readdir = %+v, %v", ents, err)
	}
	if err := m.Remove("/d"); !errors.Is(err, ErrNotEmpty) {
		t.Fatalf("remove non-empty dir = %v", err)
	}
	if _, err := m.ReadDir("/d/f"); !errors.Is(err, ErrInvalid) {
		t.Fatalf("readdir of a file = %v", err)
	}
	if err := m.Remove("/d/f"); err != nil {
		t.Fatal(err)
	}
	if err := m.Remove("/d"); err != nil {
		t.Fatal(err)
	}
	info, err := m.Stat("/")
	if err != nil || !info.Dir {
		t.Fatalf("root stat = %+v, %v", info, err)
	}
}

// TestCodes: every sentinel has its own code and comes back from it, wrapped
// or not; an error of no kind, and a code this build does not know, have
// none.
func TestCodes(t *testing.T) {
	seen := map[uint16]bool{}
	for _, s := range codes {
		c := Code(fmt.Errorf("op: %w", s))
		if c == 0 || seen[c] || FromCode(c) != s {
			t.Fatalf("%v: code %d, back to %v", s, c, FromCode(c))
		}
		seen[c] = true
	}
	if Code(nil) != 0 || Code(errors.New("fsapi: file does not exist")) != 0 {
		t.Fatal("an error that wraps no sentinel has a code")
	}
	if FromCode(0) != nil || FromCode(uint16(len(codes)+1)) != nil {
		t.Fatal("code 0 or an unknown code names a sentinel")
	}
}

func TestMemFSSparse(t *testing.T) {
	m := NewMemFS()
	f, _ := m.Create("/sparse")
	f.WriteAt([]byte("x"), 1000)
	buf := make([]byte, 10)
	if n, err := f.ReadAt(buf, 0); err != nil || n != 10 {
		t.Fatalf("read = %d, %v", n, err)
	}
	for _, b := range buf {
		if b != 0 {
			t.Fatal("hole not zero")
		}
	}
	if n, _ := f.ReadAt(buf, 5000); n != 0 {
		t.Fatalf("past-EOF = %d", n)
	}
}

func TestMemFSAppend(t *testing.T) {
	m := NewMemFS()
	f, _ := m.Create("/log")
	if off, _ := f.Append([]byte("ab")); off != 0 {
		t.Fatalf("append off = %d", off)
	}
	if off, _ := f.Append([]byte("cd")); off != 2 {
		t.Fatalf("append off = %d", off)
	}
	got := make([]byte, 4)
	f.ReadAt(got, 0)
	if string(got) != "abcd" {
		t.Fatalf("content = %q", got)
	}
}

func TestMemFSClose(t *testing.T) {
	m := NewMemFS()
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	if err := m.Close(); !errors.Is(err, ErrClosed) {
		t.Fatalf("double close = %v", err)
	}
	if _, err := m.Create("/x"); !errors.Is(err, ErrClosed) {
		t.Fatalf("create after close = %v", err)
	}
}

func TestMemFSRename(t *testing.T) {
	m := NewMemFS()
	m.Mkdir("/a")
	m.Mkdir("/b")
	f, _ := m.Create("/a/f")
	f.WriteAt([]byte("data"), 0)
	if err := m.Rename("/a/f", "/b/g"); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Open("/a/f"); !errors.Is(err, ErrNotExist) {
		t.Fatal("old path visible")
	}
	g, err := m.Open("/b/g")
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 4)
	g.ReadAt(buf, 0)
	if string(buf) != "data" {
		t.Fatalf("content = %q", buf)
	}
	// Subtree move.
	m.Mkdir("/a/sub")
	m.Create("/a/sub/x")
	if err := m.Rename("/a", "/c"); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Stat("/c/sub/x"); err != nil {
		t.Fatalf("subtree lost: %v", err)
	}
	// Errors.
	if err := m.Rename("/ghost", "/z"); !errors.Is(err, ErrNotExist) {
		t.Fatalf("missing src: %v", err)
	}
	if err := m.Rename("/c", "/b/g"); !errors.Is(err, ErrExist) {
		t.Fatalf("existing dst: %v", err)
	}
	if err := m.Rename("/c", "/c/sub/under"); err == nil {
		t.Fatal("moved dir into own subtree")
	}
	if err := m.Rename("/", "/x"); err == nil {
		t.Fatal("renamed root")
	}
}
