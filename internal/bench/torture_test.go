package bench

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"redbud/internal/fsapi"
	"redbud/internal/meta"
)

// TestClusterTorture drives a full delayed-commit cluster with a random mix
// of every operation across several clients, crashes one client mid-run,
// and then proves the system's end state three ways:
//
//  1. every surviving file reads back exactly what its oracle holds;
//  2. the MDS passes a full fsck (allocator/namespace/extent cross-check);
//  3. an MDS "reboot" — rebuilding the store purely from the journal — passes
//     fsck again and serves the same committed files.
func TestClusterTorture(t *testing.T) {
	opt := TestOptions()
	opt.Clients = 4
	opt.Scale = 0.002
	c := Build(SysRedbudDCSD, opt)
	defer c.Close()

	type oracleFile struct {
		data []byte
		sync bool // fsynced: must survive any crash
	}
	// Per-client oracles: client i only touches its own namespace.
	oracles := make([]map[string]*oracleFile, opt.Clients)

	for i := range oracles {
		oracles[i] = map[string]*oracleFile{}
	}
	for i, m := range c.Mounts {
		if err := m.Mkdir(fmt.Sprintf("/t%d", i)); err != nil {
			t.Fatal(err)
		}
	}

	runClient := func(i int, steps int, seed int64) {
		rng := rand.New(rand.NewSource(seed))
		m := c.Mounts[i]
		oracle := oracles[i]
		names := 0
		paths := func() []string {
			out := make([]string, 0, len(oracle))
			for p := range oracle {
				out = append(out, p)
			}
			return out
		}
		for step := 0; step < steps; step++ {
			switch op := rng.Intn(10); {
			case op < 4: // create + write
				path := fmt.Sprintf("/t%d/f%d-%d", i, seed, names)
				names++
				size := rng.Intn(64<<10) + 1
				data := make([]byte, size)
				rng.Read(data)
				f, err := m.Create(path)
				if err != nil {
					t.Errorf("create %s: %v", path, err)
					return
				}
				if _, err := f.WriteAt(data, 0); err != nil {
					t.Errorf("write %s: %v", path, err)
					return
				}
				of := &oracleFile{data: data}
				if rng.Intn(4) == 0 {
					if err := f.Sync(); err != nil {
						t.Errorf("sync %s: %v", path, err)
						return
					}
					of.sync = true
				}
				f.Close()
				oracle[path] = of

			case op < 6 && len(oracle) > 0: // read back and verify
				ps := paths()
				path := ps[rng.Intn(len(ps))]
				of := oracle[path]
				f, err := m.Open(path)
				if err != nil {
					t.Errorf("open %s: %v", path, err)
					return
				}
				buf := make([]byte, len(of.data))
				n, err := f.ReadAt(buf, 0)
				f.Close()
				if err != nil || n != len(of.data) {
					t.Errorf("read %s: n=%d err=%v", path, n, err)
					return
				}
				if !bytes.Equal(buf, of.data) {
					t.Errorf("%s: content mismatch", path)
					return
				}

			case op < 7 && len(oracle) > 0: // append
				ps := paths()
				path := ps[rng.Intn(len(ps))]
				of := oracle[path]
				extra := make([]byte, rng.Intn(8<<10)+1)
				rng.Read(extra)
				f, err := m.Open(path)
				if err != nil {
					t.Errorf("open %s: %v", path, err)
					return
				}
				if _, err := f.Append(extra); err != nil {
					t.Errorf("append %s: %v", path, err)
					return
				}
				f.Close()
				of.data = append(of.data, extra...)
				of.sync = false

			case op < 8 && len(oracle) > 0: // rename
				ps := paths()
				path := ps[rng.Intn(len(ps))]
				newPath := fmt.Sprintf("/t%d/r%d-%d", i, seed, step)
				if err := m.Rename(path, newPath); err != nil {
					t.Errorf("rename %s: %v", path, err)
					return
				}
				oracle[newPath] = oracle[path]
				delete(oracle, path)

			case len(oracle) > 0: // remove
				ps := paths()
				path := ps[rng.Intn(len(ps))]
				if err := m.Remove(path); err != nil {
					t.Errorf("remove %s: %v", path, err)
					return
				}
				delete(oracle, path)
			}
		}
	}

	// Phase 1: all clients work concurrently.
	done := make(chan int, opt.Clients)
	for i := 0; i < opt.Clients; i++ {
		go func() {
			runClient(i, 120, int64(1000+i))
			done <- i
		}()
	}
	for i := 0; i < opt.Clients; i++ {
		<-done
	}
	if t.Failed() {
		return
	}

	// Phase 2: client N-1 crashes; its lease is revoked at the MDS.
	victim := opt.Clients - 1
	c.CrashClient(victim)
	c.Store.ClientGone(fmt.Sprintf("client-%d", victim))

	// Phase 3: survivors keep working.
	for i := 0; i < victim; i++ {
		go func() {
			runClient(i, 60, int64(2000+i))
			done <- i
		}()
	}
	for i := 0; i < victim; i++ {
		<-done
	}
	if t.Failed() {
		return
	}
	for i := 0; i < victim; i++ {
		if err := c.Redbud[i].Drain(); err != nil {
			t.Fatal(err)
		}
	}

	// Check 1: surviving clients' files match their oracles exactly.
	for i := 0; i < victim; i++ {
		m := c.Mounts[i]
		for path, of := range oracles[i] {
			f, err := m.Open(path)
			if err != nil {
				t.Fatalf("final open %s: %v", path, err)
			}
			buf := make([]byte, len(of.data))
			n, err := f.ReadAt(buf, 0)
			f.Close()
			if err != nil || n != len(of.data) || !bytes.Equal(buf, of.data) {
				t.Fatalf("final verify %s: n=%d err=%v", path, n, err)
			}
		}
	}

	// Check 2: live MDS passes fsck and the ordered-write invariant.
	if r := c.Store.Fsck(c.AGTotal); !r.OK() {
		t.Fatalf("live fsck failed: %v", r.Problems)
	}
	if bad := c.Store.CheckConsistent(c.Durable); len(bad) != 0 {
		t.Fatalf("%d committed extents without durable data", len(bad))
	}

	// Check 3: MDS reboot from the journal alone.
	c.StopShard(0)
	rstats, err := c.RecoverShard(0)
	if err != nil {
		t.Fatalf("recovery failed after %d records: %v", rstats.Records, err)
	}
	recovered := c.Store
	if r := recovered.Fsck(c.AGTotal); !r.OK() {
		t.Fatalf("post-recovery fsck failed: %v", r.Problems)
	}
	// Every fsynced file of every client (including the crash victim!)
	// must exist with its full size in the recovered store.
	for i := 0; i < opt.Clients; i++ {
		dir, err := recovered.Lookup(meta.RootID, fmt.Sprintf("t%d", i))
		if err != nil {
			t.Fatalf("client dir t%d lost: %v", i, err)
		}
		for path, of := range oracles[i] {
			if !of.sync {
				continue
			}
			name := fsapi.SplitPath(path)[1]
			attr, err := recovered.Lookup(dir.ID, name)
			if err != nil {
				t.Fatalf("fsynced file %s lost in recovery: %v", path, err)
			}
			if attr.Size != int64(len(of.data)) {
				t.Fatalf("fsynced file %s size %d, want %d", path, attr.Size, len(of.data))
			}
		}
	}
	t.Logf("torture: %d journal records, recovery reclaimed %d orphan bytes from %d delegations",
		rstats.Records, rstats.OrphanBytes, rstats.Delegations)
}
