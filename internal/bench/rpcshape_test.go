package bench

import (
	"testing"

	"redbud/internal/blockdev"
	"redbud/internal/fsapi"
	"redbud/internal/netsim"
)

// TestComparatorRPCShape pins the modeled cost of every fsapi call on the two
// Figure 3 comparators. A comparator op costs its RPC count plus its frame
// bytes; the wire-schema lockfile pins the bytes, this table pins the count,
// so any restructuring of the comparators must leave every row unchanged.
func TestComparatorRPCShape(t *testing.T) {
	small, big := make([]byte, 4<<10), make([]byte, 1<<20)
	steps := []struct {
		call        string
		pvfs2, nfs3 int64
		run         func(fs fsapi.FileSystem, f *fsapi.File) error
	}{
		{"Mkdir /d", 1, 1, func(fs fsapi.FileSystem, _ *fsapi.File) error { return fs.Mkdir("/d") }},
		{"Mkdir /d/e", 2, 2, func(fs fsapi.FileSystem, _ *fsapi.File) error { return fs.Mkdir("/d/e") }},
		{"Create /d/e/f", 3, 3, func(fs fsapi.FileSystem, f *fsapi.File) (err error) {
			*f, err = fs.Create("/d/e/f")
			return err
		}},
		// PVFS2: one RPC per 64 KiB stripe, then SETSIZE at the metadata server.
		{"WriteAt 4 KiB", 2, 1, func(_ fsapi.FileSystem, f *fsapi.File) error { _, err := (*f).WriteAt(small, 0); return err }},
		{"WriteAt 1 MiB", 17, 1, func(_ fsapi.FileSystem, f *fsapi.File) error { _, err := (*f).WriteAt(big, 0); return err }},
		{"ReadAt 4 KiB", 1, 1, func(_ fsapi.FileSystem, f *fsapi.File) error { _, err := (*f).ReadAt(small, 0); return err }},
		{"ReadAt 1 MiB", 16, 1, func(_ fsapi.FileSystem, f *fsapi.File) error { _, err := (*f).ReadAt(big, 0); return err }},
		{"Append 4 KiB", 2, 1, func(_ fsapi.FileSystem, f *fsapi.File) error { _, err := (*f).Append(small); return err }},
		// NFS3: COMMIT on Sync and again on Close; PVFS2 writes through.
		{"Sync", 0, 1, func(_ fsapi.FileSystem, f *fsapi.File) error { return (*f).Sync() }},
		{"Close", 0, 1, func(_ fsapi.FileSystem, f *fsapi.File) error { return (*f).Close() }},
		{"Open /d/e/f", 3, 3, func(fs fsapi.FileSystem, _ *fsapi.File) error { _, err := fs.Open("/d/e/f"); return err }},
		{"Stat /d/e/f", 3, 3, func(fs fsapi.FileSystem, _ *fsapi.File) error { _, err := fs.Stat("/d/e/f"); return err }},
		{"ReadDir /d", 2, 2, func(fs fsapi.FileSystem, _ *fsapi.File) error { _, err := fs.ReadDir("/d"); return err }},
		{"Rename /d/e/f /d/g", 4, 4, func(fs fsapi.FileSystem, _ *fsapi.File) error { return fs.Rename("/d/e/f", "/d/g") }},
		// PVFS2: the full path walk, a second walk of the parent, REMOVE,
		// then one call per data server.
		{"Remove /d/g", 6, 2, func(fs fsapi.FileSystem, _ *fsapi.File) error { return fs.Remove("/d/g") }},
	}
	for _, sys := range []System{SysPVFS2, SysNFS3} {
		t.Run(sys.String(), func(t *testing.T) {
			c := Build(sys, Options{
				Clients:     1,
				Scale:       1,
				DataDevices: 2,
				DeviceSize:  1 << 30,
				Disk:        blockdev.ZeroLatency(),
				Net:         netsim.Instant(),
				MDSDaemons:  8,
			})
			defer c.Close()
			var f fsapi.File
			for _, st := range steps {
				before := c.RPCs()
				if err := st.run(c.Mounts[0], &f); err != nil {
					t.Fatalf("%s: %v", st.call, err)
				}
				want := st.nfs3
				if sys == SysPVFS2 {
					want = st.pvfs2
				}
				if got := c.RPCs() - before; got != want {
					t.Errorf("%s: %d RPCs, want %d", st.call, got, want)
				}
			}
		})
	}
}
