package redbud

import (
	"bytes"
	"errors"
	"fmt"
	"testing"

	"redbud/internal/bench"
)

func fastCluster(t *testing.T, cfg Config) *Cluster {
	t.Helper()
	cfg.FastDevices = true
	if cfg.TimeScale == 0 {
		cfg.TimeScale = 1
	}
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	return c
}

func TestPublicQuickstartFlow(t *testing.T) {
	c := fastCluster(t, Config{Clients: 2, Mode: DelayedCommit, SpaceDelegation: 16 << 20})
	fs := c.Mount(0)
	f, err := fs.Create("/hello.txt")
	if err != nil {
		t.Fatal(err)
	}
	msg := []byte("hello, redbud")
	if _, err := f.WriteAt(msg, 0); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	c.Drain()
	// The second client sees the committed file.
	g, err := c.Mount(1).Open("/hello.txt")
	if err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(msg))
	if n, err := g.ReadAt(got, 0); err != nil || n != len(msg) {
		t.Fatalf("read = %d, %v", n, err)
	}
	if !bytes.Equal(got, msg) {
		t.Fatal("cross-mount mismatch")
	}
	st := c.Stats()
	if st.BytesWritten == 0 || st.RPCs == 0 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestSyncCommitMode(t *testing.T) {
	c := fastCluster(t, Config{Mode: SyncCommit})
	fs := c.Mount(0)
	f, err := fs.Create("/sync.dat")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt([]byte("durable"), 0); err != nil {
		t.Fatal(err)
	}
	// Sync mode: committed without any drain.
	info, err := fs.Stat("/sync.dat")
	if err != nil || info.Size != 7 {
		t.Fatalf("stat = %+v, %v", info, err)
	}
}

func TestErrorsExported(t *testing.T) {
	c := fastCluster(t, Config{})
	fs := c.Mount(0)
	if _, err := fs.Open("/none"); !errors.Is(err, ErrNotExist) {
		t.Fatalf("err = %v", err)
	}
	if err := fs.Mkdir("/d"); err != nil {
		t.Fatal(err)
	}
	if err := fs.Mkdir("/d/e"); err != nil {
		t.Fatal(err)
	}
	if err := fs.Remove("/d"); !errors.Is(err, ErrNotEmpty) {
		t.Fatalf("remove of a non-empty directory = %v", err)
	}
	if err := fs.Rename("/d", "/d/e/f"); !errors.Is(err, ErrInvalid) {
		t.Fatalf("rename into its own subtree = %v", err)
	}
}

func TestBadTimeScaleRejected(t *testing.T) {
	if _, err := New(Config{TimeScale: 2}); err == nil {
		t.Fatal("TimeScale 2 accepted")
	}
}

// TestConfigModeDefault: the zero Mode is SyncCommit, so a zero Config mounts
// original Redbud, and space delegation without delayed commit is refused
// instead of silently dropped.
func TestConfigModeDefault(t *testing.T) {
	if sys := fastCluster(t, Config{}).inner.System; sys != bench.SysRedbud {
		t.Fatalf("zero Config built %s, want %s", sys, bench.SysRedbud)
	}
	if _, err := New(Config{SpaceDelegation: 1 << 20, FastDevices: true}); err == nil {
		t.Fatal("SpaceDelegation with SyncCommit accepted")
	}
	if sys := fastCluster(t, Config{Mode: DelayedCommit, SpaceDelegation: 1 << 20}).inner.System; sys != bench.SysRedbudDCSD {
		t.Fatalf("DelayedCommit with SpaceDelegation built %s, want %s", sys, bench.SysRedbudDCSD)
	}
}

// TestShardedClusterFlow drives a 4-shard cluster through the public API:
// directories and files land on different shards (32 names make that a
// statistical certainty), cross-shard creates run the two-phase intent
// protocol under the hood, and a second mount reads every byte back through
// its own shard routing. FileLayout must route the final lookup to the
// file's home shard.
func TestShardedClusterFlow(t *testing.T) {
	c := fastCluster(t, Config{Clients: 2, Mode: DelayedCommit, Shards: 4})
	fs := c.Mount(0)
	msg := []byte("sharded payload")
	for i := 0; i < 8; i++ {
		dir := fmt.Sprintf("/d%d", i)
		if err := fs.Mkdir(dir); err != nil {
			t.Fatal(err)
		}
		for j := 0; j < 4; j++ {
			f, err := fs.Create(fmt.Sprintf("%s/f%d", dir, j))
			if err != nil {
				t.Fatal(err)
			}
			if _, err := f.WriteAt(msg, 0); err != nil {
				t.Fatal(err)
			}
			if err := f.Close(); err != nil {
				t.Fatal(err)
			}
		}
	}
	c.Drain()
	got := make([]byte, len(msg))
	for i := 0; i < 8; i++ {
		for j := 0; j < 4; j++ {
			path := fmt.Sprintf("/d%d/f%d", i, j)
			g, err := c.Mount(1).Open(path)
			if err != nil {
				t.Fatal(err)
			}
			if n, err := g.ReadAt(got, 0); err != nil || n != len(msg) {
				t.Fatalf("%s: read = %d, %v", path, n, err)
			}
			if !bytes.Equal(got, msg) {
				t.Fatalf("%s: cross-mount mismatch", path)
			}
			if err := g.Close(); err != nil {
				t.Fatal(err)
			}
			lay, err := c.FileLayout(path, 0, int64(len(msg)))
			if err != nil {
				t.Fatalf("%s: layout: %v", path, err)
			}
			if len(lay.Extents) == 0 {
				t.Fatalf("%s: committed file has no extents", path)
			}
		}
	}
}

// TestShardsComposeWithDelegation: a sharded cluster runs the paper's
// delayed commit with space delegation. Files homed on both shards are
// written through one mount's per-shard pools and read back on another, and
// every shard's books balance once the clients have returned their chunks.
func TestShardsComposeWithDelegation(t *testing.T) {
	c, err := New(Config{Clients: 2, Mode: DelayedCommit, Shards: 2, SpaceDelegation: 1 << 20, FastDevices: true})
	if err != nil {
		t.Fatal(err)
	}
	fs := c.Mount(0)
	want := map[string][]byte{}
	for i := 0; i < 8; i++ {
		name := fmt.Sprintf("/f%d", i)
		want[name] = bytes.Repeat([]byte{byte(i + 1)}, 4096*(i+1))
		f, err := fs.Create(name)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := f.WriteAt(want[name], 0); err != nil {
			t.Fatal(err)
		}
		if err := f.Close(); err != nil {
			t.Fatal(err)
		}
	}
	c.Drain()
	for name, data := range want {
		g, err := c.Mount(1).Open(name)
		if err != nil {
			t.Fatal(err)
		}
		got := make([]byte, len(data))
		if n, err := g.ReadAt(got, 0); err != nil || n != len(data) || !bytes.Equal(got, data) {
			t.Fatalf("%s read back on another mount: %d bytes, %v, equal %v", name, n, err, bytes.Equal(got, data))
		}
		g.Close()
	}
	for i, st := range c.inner.Stores {
		if st.Delegations("client-0") == 0 {
			t.Errorf("shard %d granted client-0 no delegation", i)
		}
	}
	c.Close()
	for i, st := range c.inner.Stores {
		if r := st.Fsck(c.inner.AGTotals[i]); !r.OK() {
			t.Errorf("shard %d: %v: %v", i, r, r.Problems)
		}
	}
}

func TestClientStatsAccessible(t *testing.T) {
	c := fastCluster(t, Config{Mode: DelayedCommit, SpaceDelegation: 1 << 20})
	fs := c.Mount(0)
	for i := 0; i < 5; i++ {
		f, err := fs.Create(fmt.Sprintf("/f%d", i))
		if err != nil {
			t.Fatal(err)
		}
		f.WriteAt([]byte("x"), 0)
		f.Close()
	}
	c.Drain()
	st := c.Client(0).Stats()
	if st.Creates != 5 || st.CommitsSent == 0 || st.LocalAllocs != 5 {
		t.Fatalf("client stats = %+v", st)
	}
}
