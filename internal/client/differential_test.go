package client

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"redbud/internal/fsapi"
)

// sameOutcome reports whether two operations ended alike: both succeeded, or
// both failed with an error of the same fsapi kind.
func sameOutcome(err1, err2 error) bool {
	return (err1 == nil) == (err2 == nil) && fsapi.Code(err1) == fsapi.Code(err2)
}

// TestDifferentialVsMemFS drives Redbud (delayed commit + delegation, the
// most asynchronous configuration) and the in-memory reference file system
// with the same random operation stream and requires byte-identical
// behaviour and errors of the same fsapi kind. This is the strongest functional statement in the suite: no
// amount of background commit reordering may change what the application
// observes.
func TestDifferentialVsMemFS(t *testing.T) {
	for _, mode := range []Mode{SyncCommit, DelayedCommit} {
		t.Run(mode.String(), func(t *testing.T) {
			tc := newCluster(t)
			real := tc.client(mode, 16<<20)
			oracle := fsapi.NewMemFS()
			defer real.Close()

			rng := rand.New(rand.NewSource(0xD1FF))
			type state struct {
				path string
				real fsapi.File
				orc  fsapi.File
			}
			var open []*state
			var closedPaths []string
			nextID := 0

			openPair := func(path string, create bool) *state {
				var rf, of fsapi.File
				var err1, err2 error
				if create {
					rf, err1 = real.Create(path)
					of, err2 = oracle.Create(path)
				} else {
					rf, err1 = real.Open(path)
					of, err2 = oracle.Open(path)
				}
				if !sameOutcome(err1, err2) {
					t.Fatalf("open(%q, create=%v): real err %v, oracle err %v", path, create, err1, err2)
				}
				if err1 != nil {
					return nil
				}
				return &state{path: path, real: rf, orc: of}
			}

			for step := 0; step < 400; step++ {
				switch op := rng.Intn(10); {
				case op < 3: // create, now and then over a closed file's name
					path := fmt.Sprintf("/df-%d", nextID)
					if len(closedPaths) > 0 && rng.Intn(4) == 0 {
						path = closedPaths[rng.Intn(len(closedPaths))]
					} else {
						nextID++
					}
					if st := openPair(path, true); st != nil {
						open = append(open, st)
					}

				case op < 6 && len(open) > 0: // write at random offset
					st := open[rng.Intn(len(open))]
					data := make([]byte, rng.Intn(20000)+1)
					for i := range data {
						data[i] = byte(rng.Intn(256))
					}
					off := int64(rng.Intn(50000))
					_, err1 := st.real.WriteAt(data, off)
					_, err2 := st.orc.WriteAt(data, off)
					if !sameOutcome(err1, err2) {
						t.Fatalf("write: real %v oracle %v", err1, err2)
					}

				case op < 7 && len(open) > 0: // append
					st := open[rng.Intn(len(open))]
					data := bytes.Repeat([]byte{byte(step)}, rng.Intn(5000)+1)
					o1, err1 := st.real.Append(data)
					o2, err2 := st.orc.Append(data)
					if err1 != nil || err2 != nil || o1 != o2 {
						t.Fatalf("append: off %d/%d err %v/%v", o1, o2, err1, err2)
					}

				case op < 9 && len(open) > 0: // read and compare
					st := open[rng.Intn(len(open))]
					if s1, s2 := st.real.Size(), st.orc.Size(); s1 != s2 {
						t.Fatalf("size mismatch on %s: %d vs %d", st.path, s1, s2)
					}
					n := rng.Intn(30000) + 1
					off := int64(rng.Intn(60000))
					b1 := make([]byte, n)
					b2 := make([]byte, n)
					n1, err1 := st.real.ReadAt(b1, off)
					n2, err2 := st.orc.ReadAt(b2, off)
					if err1 != nil || err2 != nil {
						t.Fatalf("read err: %v / %v", err1, err2)
					}
					if n1 != n2 || !bytes.Equal(b1[:n1], b2[:n2]) {
						t.Fatalf("read mismatch on %s at %d len %d: n=%d/%d", st.path, off, n, n1, n2)
					}

				case len(open) > 0: // close (sometimes fsync first)
					i := rng.Intn(len(open))
					st := open[i]
					if rng.Intn(2) == 0 {
						if err := st.real.Sync(); err != nil {
							t.Fatal(err)
						}
					}
					if err := st.real.Close(); err != nil {
						t.Fatal(err)
					}
					st.orc.Close()
					closedPaths = append(closedPaths, st.path)
					open = append(open[:i], open[i+1:]...)

				default: // rename a closed file, or reopen one
					if len(closedPaths) == 0 {
						continue
					}
					i := rng.Intn(len(closedPaths))
					path := closedPaths[i]
					if rng.Intn(2) == 0 {
						newPath := fmt.Sprintf("/renamed-%d", step)
						err1 := real.Rename(path, newPath)
						err2 := oracle.Rename(path, newPath)
						if !sameOutcome(err1, err2) {
							t.Fatalf("rename(%q): real %v oracle %v", path, err1, err2)
						}
						if err1 == nil {
							closedPaths[i] = newPath
						}
						continue
					}
					if st := openPair(path, false); st != nil {
						open = append(open, st)
					}
				}
			}

			// Final sweep: every known path byte-identical through
			// fresh handles.
			if err := real.Drain(); err != nil {
				t.Fatal(err)
			}
			finalPaths := append([]string(nil), closedPaths...)
			for _, st := range open {
				finalPaths = append(finalPaths, st.path)
			}
			for _, path := range finalPaths {
				i1, err1 := real.Stat(path)
				i2, err2 := oracle.Stat(path)
				if !sameOutcome(err1, err2) {
					t.Fatalf("stat(%q): %v vs %v", path, err1, err2)
				}
				if err1 != nil {
					continue
				}
				if i1.Size != i2.Size {
					t.Fatalf("%s size %d vs %d", path, i1.Size, i2.Size)
				}
				f1, err := real.Open(path)
				if err != nil {
					t.Fatal(err)
				}
				f2, _ := oracle.Open(path)
				b1 := make([]byte, i1.Size)
				b2 := make([]byte, i2.Size)
				n1, err := f1.ReadAt(b1, 0)
				if err != nil {
					t.Fatal(err)
				}
				n2, _ := f2.ReadAt(b2, 0)
				if n1 != n2 || !bytes.Equal(b1[:n1], b2[:n2]) {
					t.Fatalf("%s final content mismatch (%d vs %d bytes)", path, n1, n2)
				}
				f1.Close()
				f2.Close()
			}
		})
	}
}

// TestTwoMountDifferentialVsMemFS drives TWO Redbud mounts and one in-memory
// reference file system with the same random operation stream — create,
// write+sync, append+sync, open, stat, remove, rename, remove-and-recreate,
// each issued through either mount — and after every step requires both
// mounts to describe every path, live or gone, exactly as the reference does:
// existence, Stat size, the size an Open sees, and the bytes. Both mounts
// negotiate v5, so each holds delegations on what it created and serves its
// own opens from memory; the other mount's every mutation has to take those
// back first. A cache that is merely plausible — a TTL, a lease nobody
// recalls — fails this within a few steps. Writes are whole pages at the end
// of the file: the page cache is not kept coherent across clients (it never
// was), so only data no client can hold a stale copy of is compared.
func TestTwoMountDifferentialVsMemFS(t *testing.T) {
	for _, mode := range []Mode{SyncCommit, DelayedCommit} {
		for _, spaceChunk := range []int64{0, 16 << 20} {
			t.Run(fmt.Sprintf("%s/space-delegation=%v", mode, spaceChunk > 0), func(t *testing.T) {
				dc := newDelegCluster(t)
				dc.drive()
				withSpace := func(cfg *Config) { cfg.DelegationChunk = spaceChunk }
				a, _ := dc.mountWith(mode, withSpace)
				b, _ := dc.mountWith(mode, withSpace)
				mounts := []*Client{a, b}
				oracle := fsapi.NewMemFSWithClock(dc.clk)
				rng := rand.New(rand.NewSource(0x2D1FF))

				var live, gone []string
				names := 0
				pages := func() []byte {
					p := make([]byte, (rng.Intn(3)+1)*PageSize)
					rng.Read(p)
					return p
				}
				// both runs op on the real mount m and on the oracle and
				// requires the same outcome.
				both := func(what string, m *Client, op func(fs fsapi.FileSystem) error) bool {
					t.Helper()
					err1, err2 := op(m), op(oracle)
					if !sameOutcome(err1, err2) {
						t.Fatalf("%s through %s: real %v, reference %v", what, m.cfg.Name, err1, err2)
					}
					return err1 == nil
				}
				extend := func(fs fsapi.FileSystem, path string, data []byte, appendOp bool) error {
					f, err := fs.Open(path)
					if err != nil {
						return err
					}
					defer f.Close()
					if appendOp {
						_, err = f.Append(data)
					} else {
						_, err = f.WriteAt(data, f.Size())
					}
					if err != nil {
						return err
					}
					return f.Sync()
				}
				check := func(step int, path string) {
					t.Helper()
					want, werr := oracle.Stat(path)
					for _, m := range mounts {
						got, err := m.Stat(path)
						if !sameOutcome(err, werr) {
							t.Fatalf("step %d: Stat(%s) through %s = %v, the reference says %v", step, path, m.cfg.Name, err, werr)
						}
						f, oerr := m.Open(path)
						if !sameOutcome(oerr, werr) {
							t.Fatalf("step %d: Open(%s) through %s = %v, the reference says %v", step, path, m.cfg.Name, oerr, werr)
						}
						if werr != nil {
							continue
						}
						if got.Size != want.Size || f.Size() != want.Size {
							t.Fatalf("step %d: %s through %s: Stat size %d, Open size %d, the reference has %d",
								step, path, m.cfg.Name, got.Size, f.Size(), want.Size)
						}
						if step%8 == 0 {
							of, _ := oracle.Open(path)
							b1, b2 := make([]byte, want.Size), make([]byte, want.Size)
							n1, err := f.ReadAt(b1, 0)
							n2, _ := of.ReadAt(b2, 0)
							if err != nil || n1 != n2 || !bytes.Equal(b1, b2) {
								t.Fatalf("step %d: %s through %s: content differs from the reference (%d vs %d bytes, err %v)", step, path, m.cfg.Name, n1, n2, err)
							}
						}
						f.Close()
					}
				}

				for step := 0; step < 300; step++ {
					m := mounts[rng.Intn(2)]
					switch op := rng.Intn(12); {
					case op < 3 || len(live) == 0: // create, sometimes under a name that was removed
						path := fmt.Sprintf("/tm-%d", names)
						if len(gone) > 0 && rng.Intn(2) == 0 {
							i := rng.Intn(len(gone))
							path, gone = gone[i], append(gone[:i], gone[i+1:]...)
						} else {
							names++
						}
						data := pages()
						if both("create "+path, m, func(fs fsapi.FileSystem) error {
							f, err := fs.Create(path)
							if err != nil {
								return err
							}
							defer f.Close()
							if _, err := f.WriteAt(data, 0); err != nil {
								return err
							}
							return f.Sync()
						}) {
							live = append(live, path)
						}
					case op < 6: // write + sync, or append + sync
						path, data := live[rng.Intn(len(live))], pages()
						both("extend "+path, m, func(fs fsapi.FileSystem) error { return extend(fs, path, data, op == 5) })
					case op < 8: // remove
						i := rng.Intn(len(live))
						path := live[i]
						if both("remove "+path, m, func(fs fsapi.FileSystem) error { return fs.Remove(path) }) {
							live, gone = append(live[:i], live[i+1:]...), append(gone, path)
						}
					case op < 9: // rename
						i := rng.Intn(len(live))
						from, to := live[i], fmt.Sprintf("/tm-%d", names)
						names++
						if both("rename "+from, m, func(fs fsapi.FileSystem) error { return fs.Rename(from, to) }) {
							live[i], gone = to, append(gone, from)
						}
					default: // nothing but the comparison: opens and stats through both mounts
					}
					for _, path := range live {
						check(step, path)
					}
					for _, path := range gone {
						check(step, path)
					}
				}

				// The test has teeth only if the cache was used and contested.
				var hits int64
				for _, m := range mounts {
					hits += m.st.openHits.Load()
				}
				st := dc.recalls()
				if hits == 0 || st.Grants == 0 || st.Recalls == 0 {
					t.Fatalf("%d opens served from a delegation, MDS stats %+v: the stream never exercised the cache", hits, st)
				}
			})
		}
	}
}
