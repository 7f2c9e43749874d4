package baseline

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"redbud/internal/fsapi"
)

// systems mounts each comparator fresh: NFS3 over its one server, PVFS2 over
// a metadata server and two data servers.
var systems = []struct {
	name  string
	mount func(t *testing.T) fsapi.FileSystem
}{
	{"nfs3", func(t *testing.T) fsapi.FileSystem { c, _, _ := newMount(t); return c }},
	{"pvfs2", func(t *testing.T) fsapi.FileSystem { return newCluster(t, 2).mount() }},
}

// step is one row of a namespace script: an operation and the outcome it
// must have, nil for success or the fsapi sentinel its error wraps.
type step struct {
	do   string
	want error
	run  func(fs fsapi.FileSystem) error
}

// runScript plays steps in order on a fresh mount of each system.
func runScript(t *testing.T, steps []step) {
	for _, sys := range systems {
		t.Run(sys.name, func(t *testing.T) {
			fs := sys.mount(t)
			for _, st := range steps {
				err := st.run(fs)
				switch {
				case st.want == nil && err != nil:
					t.Fatalf("%s: %v", st.do, err)
				case st.want != nil && !errors.Is(err, st.want):
					t.Fatalf("%s = %v, want %v", st.do, err, st.want)
				}
			}
		})
	}
}

func mkdir(p string) step {
	return step{"mkdir " + p, nil, func(fs fsapi.FileSystem) error { return fs.Mkdir(p) }}
}

func create(p string) step {
	return step{"create " + p, nil, func(fs fsapi.FileSystem) error { _, err := fs.Create(p); return err }}
}

// createXYZ creates p holding the three bytes "xyz".
func createXYZ(p string) step {
	return step{"create " + p + " with xyz", nil, func(fs fsapi.FileSystem) error {
		f, err := fs.Create(p)
		if err != nil {
			return err
		}
		if _, err := f.WriteAt([]byte("xyz"), 0); err != nil {
			return err
		}
		return f.Close()
	}}
}

func TestNamespaceOps(t *testing.T) {
	runScript(t, []step{
		mkdir("/dir"),
		createXYZ("/dir/file"),
		{"stat /dir/file", nil, func(fs fsapi.FileSystem) error {
			if info, err := fs.Stat("/dir/file"); err != nil || info.Size != 3 || info.Dir {
				return fmt.Errorf("stat = %+v, %v", info, err)
			}
			return nil
		}},
		{"readdir /dir", nil, func(fs fsapi.FileSystem) error {
			if ents, err := fs.ReadDir("/dir"); err != nil || len(ents) != 1 || ents[0].Name != "file" || ents[0].Dir {
				return fmt.Errorf("readdir = %+v, %v", ents, err)
			}
			return nil
		}},
		{"remove /dir/file", nil, func(fs fsapi.FileSystem) error { return fs.Remove("/dir/file") }},
		{"stat removed", fsapi.ErrNotExist, func(fs fsapi.FileSystem) error { _, err := fs.Stat("/dir/file"); return err }},
		{"remove empty dir", nil, func(fs fsapi.FileSystem) error { return fs.Remove("/dir") }},
	})
}

func TestErrors(t *testing.T) {
	runScript(t, []step{
		{"open missing", fsapi.ErrNotExist, func(fs fsapi.FileSystem) error { _, err := fs.Open("/ghost"); return err }},
		create("/dup"),
		{"create existing", fsapi.ErrExist, func(fs fsapi.FileSystem) error { _, err := fs.Create("/dup"); return err }},
		// A name that reads like another refusal changes nothing.
		create("/not found"),
		{"create existing /not found", fsapi.ErrExist, func(fs fsapi.FileSystem) error { _, err := fs.Create("/not found"); return err }},
		mkdir("/d"),
		{"mkdir existing", fsapi.ErrExist, func(fs fsapi.FileSystem) error { return fs.Mkdir("/d") }},
		{"open dir", fsapi.ErrIsDir, func(fs fsapi.FileSystem) error { _, err := fs.Open("/d"); return err }},
		create("/d/inner"),
		{"remove non-empty dir", fsapi.ErrNotEmpty, func(fs fsapi.FileSystem) error { return fs.Remove("/d") }},
	})
}

func TestRename(t *testing.T) {
	runScript(t, []step{
		mkdir("/a"),
		createXYZ("/a/old"),
		{"rename /a/old /new", nil, func(fs fsapi.FileSystem) error { return fs.Rename("/a/old", "/new") }},
		{"stat old path", fsapi.ErrNotExist, func(fs fsapi.FileSystem) error { _, err := fs.Stat("/a/old"); return err }},
		{"read renamed", nil, func(fs fsapi.FileSystem) error {
			if info, err := fs.Stat("/new"); err != nil || info.Size != 3 {
				return fmt.Errorf("stat = %+v, %v", info, err)
			}
			f, err := fs.Open("/new")
			if err != nil {
				return err
			}
			buf := make([]byte, 3)
			if n, err := f.ReadAt(buf, 0); err != nil || n != 3 || string(buf) != "xyz" || f.Size() != 3 {
				return fmt.Errorf("read = %d %q, size %d, %v", n, buf, f.Size(), err)
			}
			return nil
		}},
		{"rename missing", fsapi.ErrNotExist, func(fs fsapi.FileSystem) error { return fs.Rename("/ghost", "/x") }},
		create("/taken"),
		{"rename onto existing", fsapi.ErrExist, func(fs fsapi.FileSystem) error { return fs.Rename("/new", "/taken") }},
	})
}

// TestRenameIntoOwnSubtree: a directory renamed under itself would be cut off
// from the root, so the namespace refuses it, and a legal move that follows
// updates the ancestry the refusal walks.
func TestRenameIntoOwnSubtree(t *testing.T) {
	for _, sys := range systems {
		t.Run(sys.name, func(t *testing.T) {
			fs := sys.mount(t)
			for _, d := range []string{"/a", "/a/b"} {
				if err := fs.Mkdir(d); err != nil {
					t.Fatal(err)
				}
			}
			for _, dst := range []string{"/a/c", "/a/b/c"} {
				if err := fs.Rename("/a", dst); err == nil {
					t.Fatalf("rename /a %s succeeded", dst)
				}
			}
			if info, err := fs.Stat("/a/b"); err != nil || !info.Dir {
				t.Fatalf("stat /a/b after refused renames = %+v, %v", info, err)
			}
			// b leaves a, then a may move under b, and then b is a's child.
			if err := fs.Rename("/a/b", "/b"); err != nil {
				t.Fatal(err)
			}
			if err := fs.Rename("/a", "/b/a"); err != nil {
				t.Fatal(err)
			}
			if err := fs.Rename("/b", "/b/a/b"); err == nil {
				t.Fatal("rename /b /b/a/b succeeded")
			}
			if info, err := fs.Stat("/b/a"); err != nil || !info.Dir {
				t.Fatalf("stat /b/a = %+v, %v", info, err)
			}
		})
	}
}

// TestDifferentialOracle drives each comparator and fsapi.MemFS with one
// seeded stream of namespace and file operations and requires the same
// outcome (nil, or an error of the same fsapi kind), the same sizes and the
// same bytes at every step.
func TestDifferentialOracle(t *testing.T) {
	for _, sys := range systems {
		t.Run(sys.name, func(t *testing.T) {
			o := &oracle{
				t:    t,
				rng:  rand.New(rand.NewSource(24)),
				got:  sys.mount(t),
				want: fsapi.NewMemFS(),
				dirs: []string{"/"},
				open: map[string]filePair{},
			}
			for i := 0; i < 600; i++ {
				o.step = i
				o.next()
			}
			o.checkAll()
		})
	}
}

type filePair struct{ got, want fsapi.File }

// oracle holds the two file systems under comparison and the paths it knows
// exist, updated only after both agreed an operation succeeded.
type oracle struct {
	t         *testing.T
	rng       *rand.Rand
	step      int
	got, want fsapi.FileSystem
	dirs      []string // "/" first
	files     []string
	open      map[string]filePair // at most one handle per file
	loops     int                 // directory renames into their own subtree
}

func join(dir, name string) string {
	if dir == "/" {
		return "/" + name
	}
	return dir + "/" + name
}

func (o *oracle) pick(paths []string) string { return paths[o.rng.Intn(len(paths))] }

// anyPath is an existing file or directory, or sometimes a missing one.
func (o *oracle) anyPath() string {
	switch n := o.rng.Intn(8); {
	case n == 0:
		return join(o.pick(o.dirs), "ghost")
	case n < 4 || len(o.files) == 0:
		return o.pick(o.dirs)
	default:
		return o.pick(o.files)
	}
}

// same fails the test unless both outcomes agree, down to the fsapi sentinel
// an error wraps; it reports whether both succeeded.
func (o *oracle) same(op string, got, want error) bool {
	o.t.Helper()
	if (got == nil) != (want == nil) || fsapi.Code(got) != fsapi.Code(want) {
		o.t.Fatalf("step %d %s: got %v, memfs %v", o.step, op, got, want)
	}
	return got == nil
}

// handle returns an open pair for a known file, opening one if needed.
func (o *oracle) handle(path string) (filePair, bool) {
	if h, ok := o.open[path]; ok {
		return h, true
	}
	g, errG := o.got.Open(path)
	w, errW := o.want.Open(path)
	if !o.same("open "+path, errG, errW) {
		return filePair{}, false
	}
	h := filePair{g, w}
	o.open[path] = h
	o.sameSize("open "+path, h)
	return h, true
}

func (o *oracle) sameSize(op string, h filePair) {
	o.t.Helper()
	if g, w := h.got.Size(), h.want.Size(); g != w {
		o.t.Fatalf("step %d %s: size %d, memfs %d", o.step, op, g, w)
	}
}

func (o *oracle) payload(n int) []byte {
	p := make([]byte, n)
	o.rng.Read(p)
	return p
}

// moved rewrites every known path under from (itself included) to lie under to.
func moved(paths []string, from, to string) []string {
	for i, p := range paths {
		if p == from || strings.HasPrefix(p, from+"/") {
			paths[i] = to + p[len(from):]
		}
	}
	return paths
}

func without(paths []string, drop string) []string {
	for i, p := range paths {
		if p == drop {
			return append(paths[:i], paths[i+1:]...)
		}
	}
	return paths
}

func (o *oracle) next() {
	switch op := o.rng.Intn(15); {
	case op <= 1: // mkdir, names from a small pool so some collide
		p := join(o.pick(o.dirs), fmt.Sprintf("d%d", o.rng.Intn(5)))
		if o.same("mkdir "+p, o.got.Mkdir(p), o.want.Mkdir(p)) {
			o.dirs = append(o.dirs, p)
		}

	case op <= 3: // create
		p := join(o.pick(o.dirs), fmt.Sprintf("f%d", o.rng.Intn(5)))
		g, errG := o.got.Create(p)
		w, errW := o.want.Create(p)
		if o.same("create "+p, errG, errW) {
			o.files = append(o.files, p)
			o.open[p] = filePair{g, w}
		}

	case op <= 8 && len(o.files) > 0: // write, append, read, sync, close
		p := o.pick(o.files)
		h, ok := o.handle(p)
		if !ok {
			return
		}
		switch op {
		case 4:
			off, data := o.rng.Int63n(200<<10), o.payload(1+o.rng.Intn(70<<10))
			nG, errG := h.got.WriteAt(data, off)
			nW, errW := h.want.WriteAt(data, off)
			if o.same("write "+p, errG, errW) && nG != nW {
				o.t.Fatalf("step %d write %s: wrote %d, memfs %d", o.step, p, nG, nW)
			}
		case 5:
			data := o.payload(1 + o.rng.Intn(10<<10))
			offG, errG := h.got.Append(data)
			offW, errW := h.want.Append(data)
			if o.same("append "+p, errG, errW) && offG != offW {
				o.t.Fatalf("step %d append %s: at %d, memfs at %d", o.step, p, offG, offW)
			}
		case 6:
			o.sameRead(p, h, o.rng.Int63n(h.want.Size()+1), 1+o.rng.Intn(100<<10))
		case 7:
			o.same("sync "+p, h.got.Sync(), h.want.Sync())
		case 8:
			o.same("close "+p, h.got.Close(), h.want.Close())
			delete(o.open, p)
			return
		}
		o.sameSize("io on "+p, h)

	case op == 9: // open a fresh handle (or fail to: a directory, a ghost)
		p := o.anyPath()
		if h, ok := o.open[p]; ok {
			o.same("close "+p, h.got.Close(), h.want.Close())
			delete(o.open, p)
		}
		o.handle(p)

	case op == 10: // stat
		p := o.anyPath()
		g, errG := o.got.Stat(p)
		w, errW := o.want.Stat(p)
		if o.same("stat "+p, errG, errW) && (g.Size != w.Size || g.Dir != w.Dir || g.Name != w.Name) {
			o.t.Fatalf("step %d stat %s: %+v, memfs %+v", o.step, p, g, w)
		}

	case op == 11: // readdir
		p := o.anyPath()
		g, errG := o.got.ReadDir(p)
		w, errW := o.want.ReadDir(p)
		if o.same("readdir "+p, errG, errW) && listing(g) != listing(w) {
			o.t.Fatalf("step %d readdir %s: %s, memfs %s", o.step, p, listing(g), listing(w))
		}

	case op == 12 && len(o.files) > 0: // rename a file, across directories
		src := o.pick(o.files)
		dst := join(o.pick(o.dirs), fmt.Sprintf("f%d", o.rng.Intn(5)))
		if o.same("rename "+src+" "+dst, o.got.Rename(src, dst), o.want.Rename(src, dst)) {
			o.files = moved(o.files, src, dst)
			if h, ok := o.open[src]; ok {
				delete(o.open, src)
				o.open[dst] = h
			}
		}

	case op == 13: // rename a directory, sometimes into its own subtree
		src := o.pick(o.dirs)
		dst := join(o.pick(o.dirs), fmt.Sprintf("d%d", o.rng.Intn(5)))
		if strings.HasPrefix(dst, src+"/") {
			o.loops++
		}
		if o.same("rename "+src+" "+dst, o.got.Rename(src, dst), o.want.Rename(src, dst)) {
			o.dirs = moved(o.dirs, src, dst)
			o.files = moved(o.files, src, dst)
			reopened := map[string]filePair{}
			for p, h := range o.open {
				reopened[moved([]string{p}, src, dst)[0]] = h
			}
			o.open = reopened
		}

	case op == 14: // remove a file or an (empty or not) directory
		p := o.anyPath()
		if p == "/" {
			return
		}
		if o.same("remove "+p, o.got.Remove(p), o.want.Remove(p)) {
			o.dirs = without(o.dirs, p)
			o.files = without(o.files, p)
			delete(o.open, p)
		}
	}
}

func (o *oracle) sameRead(p string, h filePair, off int64, n int) {
	o.t.Helper()
	bufG, bufW := make([]byte, n), make([]byte, n)
	nG, errG := h.got.ReadAt(bufG, off)
	nW, errW := h.want.ReadAt(bufW, off)
	if !o.same("read "+p, errG, errW) {
		return
	}
	if nG != nW || !bytes.Equal(bufG[:nG], bufW[:nW]) {
		o.t.Fatalf("step %d read %s at %d: %d bytes, memfs %d, equal=%v", o.step, p, off, nG, nW, bytes.Equal(bufG[:nG], bufW[:nW]))
	}
}

// checkAll reads every surviving file whole through a fresh handle.
func (o *oracle) checkAll() {
	for p := range o.open {
		delete(o.open, p)
	}
	for _, p := range o.files {
		if h, ok := o.handle(p); ok {
			o.sameRead(p, h, 0, int(h.want.Size()))
		}
	}
	if len(o.dirs) < 10 || len(o.files) < 10 || o.loops == 0 {
		o.t.Fatalf("stream too shallow: %d dirs, %d files, %d loop renames", len(o.dirs), len(o.files), o.loops)
	}
	o.t.Logf("%d steps: %d dirs and %d files left, %d loop renames refused", o.step+1, len(o.dirs), len(o.files), o.loops)
}

// listing renders a directory's entries in name order.
func listing(infos []fsapi.Info) string {
	var out []string
	for _, in := range infos {
		out = append(out, fmt.Sprintf("%s:%v", in.Name, in.Dir))
	}
	sort.Strings(out)
	return strings.Join(out, " ")
}
