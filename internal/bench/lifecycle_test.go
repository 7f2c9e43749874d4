package bench

import (
	"bytes"
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"

	"redbud/internal/blockdev"
	"redbud/internal/client"
	"redbud/internal/fsapi"
	"redbud/internal/meta"
	"redbud/internal/netsim"
	"redbud/internal/obs"
	"redbud/internal/workload"
)

// lifecycleOptions is a three-client delayed-commit cluster where nothing
// costs modeled time, with the commit oracle on and a retry policy that
// survives a restart: the call timeout is what fails a request the crashed
// server had queued and will never answer.
func lifecycleOptions(shards int) Options {
	return Options{
		Clients:     3,
		Scale:       1,
		DataDevices: 2,
		DeviceSize:  1 << 30,
		Disk:        blockdev.ZeroLatency(),
		Net:         netsim.Instant(),
		MDSDaemons:  2,
		CommitCheck: true,
		Retry: client.RetryPolicy{
			MaxAttempts: 8,
			BaseDelay:   time.Millisecond,
			MaxDelay:    8 * time.Millisecond,
			CallTimeout: 50 * time.Millisecond,
		},
		Seed:   1,
		Shards: shards,
	}
}

func lifecycleData(path string) []byte {
	data := make([]byte, 12<<10)
	for i := range data {
		data[i] = byte(i) + path[len(path)-1]
	}
	return data
}

// writeSynced creates path, writes its pattern and syncs it.
func writeSynced(m fsapi.FileSystem, path string) error {
	f, err := m.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	if _, err := f.WriteAt(lifecycleData(path), 0); err != nil {
		return err
	}
	return f.Sync()
}

// TestShardLifecycle restarts every shard of a one- and a two-shard cluster
// twice while a third client keeps writing: the clients redial, learn the
// bumped incarnation and re-establish their sessions; every file the first
// two synced reads back through the other's mount; every shard fscks clean
// with no committed extent over non-durable data; and the collector follows
// the restarted shard's fresh registry.
func TestShardLifecycle(t *testing.T) {
	for _, shards := range []int{1, 2} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			c := Build(SysRedbudDC, lifecycleOptions(shards))
			defer c.Close()

			synced := map[string]int{} // path -> the client that wrote it
			names := 0
			// mustSync has client i write and sync a new file homed on shard
			// s, under a name the placement hash routes there.
			mustSync := func(i, s int) string {
				t.Helper()
				for ; ; names++ {
					if meta.PlaceShard(meta.RootID, fmt.Sprintf("f%d", names), shards) == s {
						break
					}
				}
				path := fmt.Sprintf("/f%d", names)
				names++
				if err := writeSynced(c.Mounts[i], path); err != nil {
					t.Fatalf("client %d: %s on shard %d: %v", i, path, s, err)
				}
				synced[path] = i
				return path
			}
			// A file of each of the first two clients homed on each shard:
			// a client stats the other's to reach the shard, because its own
			// it holds the delegation on, and Stat then costs no RPC.
			probe := make([][2]string, shards)
			for s := range probe {
				probe[s] = [2]string{mustSync(0, s), mustSync(1, s)}
			}

			for round := 0; round < 2; round++ {
				for s := 0; s < shards; s++ {
					// Client 2 writes and syncs file after file while the
					// shard goes down and comes back (the Stat is what lets it
					// reconnect). What overlaps the outage may fail, and may be
					// lost even where Sync returned nil: a session that dies
					// under a flush drops its data quietly, and so does one
					// re-established under a concurrent write
					// (client/writeback.go). That is why the files checked
					// below belong to clients that sit the outage out. Client 2
					// must not hang, and must leave nothing behind that the
					// checks trip over.
					stop, done := make(chan struct{}), make(chan struct{})
					writing := make(chan struct{}) // closed once client 2 is at it
					go func() {
						defer close(done)
						m := c.Mounts[2]
						for n := 0; ; n++ {
							select {
							case <-stop:
								return
							default:
							}
							_, _ = m.Stat(probe[s][0])
							_ = writeSynced(m, fmt.Sprintf("/inflight-%d-%d-%d", round, s, n))
							if n == 0 {
								close(writing)
							}
						}
					}()
					<-writing
					before := c.MDSs[s]
					if err := c.RestartShard(s); err != nil {
						t.Fatal(err)
					}
					close(stop)
					<-done

					if got, want := c.Incarnation(s), uint64(round+2); got != want {
						t.Fatalf("shard %d incarnation %d after restart %d, want %d", s, got, round+1, want)
					}
					if c.MDSs[s] == before {
						t.Fatalf("shard %d still served by the crashed MDS", s)
					}
					// A namespace mutation is never retried, so it is an
					// idempotent call to the restarted shard that finds the
					// dead connection, redials and re-establishes the session.
					// After it both clients create and commit there again.
					for i, m := range c.Mounts[:2] {
						if _, err := m.Stat(probe[s][1-i]); err != nil {
							t.Fatalf("client %d did not reconnect to shard %d: %v", i, s, err)
						}
						mustSync(i, s)
					}
				}
			}
			c.Drain()

			// Every file is read through the mount that did not write it and
			// so never had it cached.
			for path, writer := range synced {
				other := c.Mounts[1-writer]
				want := lifecycleData(path)
				f, err := other.Open(path)
				if err != nil {
					t.Fatalf("synced file %s lost: %v", path, err)
				}
				got := make([]byte, len(want))
				n, err := f.ReadAt(got, 0)
				f.Close()
				if err != nil || n != len(want) || !bytes.Equal(got, want) {
					t.Fatalf("synced file %s: read %d bytes (err %v), content match %v", path, n, err, bytes.Equal(got, want))
				}
			}

			if v := c.Violations(); len(v) != 0 {
				t.Errorf("ordered-write violations: %s", strings.Join(v, "; "))
			}
			if shards > 1 {
				// A cross-shard create the outage cut short left an intent.
				if err := meta.ResolveNSIntents(c.Stores); err != nil {
					t.Fatal(err)
				}
				if probs := meta.FsckCluster(c.Stores); len(probs) != 0 {
					t.Errorf("cluster fsck: %s", strings.Join(probs, "; "))
				}
			}
			for i, st := range c.Stores {
				if r := st.Fsck(c.AGTotals[i]); !r.OK() {
					t.Errorf("shard %d fsck: %s", i, r)
				}
				if bad := st.CheckConsistent(c.Durable); len(bad) != 0 {
					t.Errorf("shard %d: %d committed extents without durable data", i, len(bad))
				}
			}

			// The collector reads the live incarnation of every shard: the
			// servers that applied the post-restart commits.
			snap := c.Collector.Collect()
			if got, want := len(snap.Shards), shards+1; got != want {
				t.Fatalf("collector has %d sources, want %d", got, want)
			}
			for i, sh := range snap.Shards[:shards] {
				if sh.Err != "" {
					t.Fatalf("source %s: %s", sh.Shard, sh.Err)
				}
				var commits int64
				for _, m := range sh.Metrics.Metrics {
					if m.Name == "redbud_mds_commit_latency_seconds" && m.Hist != nil {
						commits = m.Hist.Count
					}
				}
				live := obs.NewRegistry()
				c.MDSs[i].RegisterMetrics(live)
				served, _ := live.Snapshot().Get("redbud_mds_commit_latency_seconds")
				if want := served.Hist.Count; commits == 0 || commits != want {
					t.Errorf("source %s shows %d commits, the live MDS has served %d", sh.Shard, commits, want)
				}
			}
		})
	}
}

// TestShardedMountRedialsWithDefaultRetry: a sharded mount with a zero
// RetryPolicy survives a dead shard connection exactly as a single-shard one
// does — the idempotent Stat that finds the connection closed redials that
// shard and succeeds instead of surfacing rpc.ErrConnClosed.
func TestShardedMountRedialsWithDefaultRetry(t *testing.T) {
	opt := lifecycleOptions(2)
	opt.Retry = client.RetryPolicy{}
	c := Build(SysRedbudDC, opt)
	defer c.Close()
	name := 0
	for meta.PlaceShard(meta.RootID, fmt.Sprintf("f%d", name), 2) != 1 {
		name++
	}
	path := fmt.Sprintf("/f%d", name)
	if err := writeSynced(c.Mounts[1], path); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Mounts[0].Stat(path); err != nil {
		t.Fatal(err)
	}
	// Shard 1 drops every connection and comes back on a new listener.
	c.StopShard(1)
	if err := c.ServeShard(1); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Mounts[0].Stat(path); err != nil {
		t.Fatalf("stat over the dead shard connection: %v", err)
	}
}

// TestCloseAfterFailedStart: a mount that fails half-way (shard 1 is down) and
// a shard left stopped must not keep Close from winding every goroutine of
// the cluster down.
func TestCloseAfterFailedStart(t *testing.T) {
	before := runtime.NumGoroutine()
	c := Build(SysRedbudDC, lifecycleOptions(2))
	if err := writeSynced(c.Mounts[0], "/f"); err != nil {
		t.Fatal(err)
	}
	c.StopShard(1)
	if _, err := c.AddClient(SysRedbudDC); err == nil {
		t.Fatal("mounted a client while shard 1 was not listening")
	}
	if len(c.Mounts) != 3 {
		t.Fatalf("failed mount left %d mounts, want 3", len(c.Mounts))
	}
	c.Close()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("%d goroutines before Build, %d after Close:\n%s",
				before, runtime.NumGoroutine(), buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(time.Millisecond)
	}
}

// shardPath returns the first "/<prefix><n>" the placement hash homes on
// shard s of shards.
func shardPath(prefix string, s, shards int) string {
	for n := 0; ; n++ {
		if name := fmt.Sprintf("%s%d", prefix, n); meta.PlaceShard(meta.RootID, name, shards) == s {
			return "/" + name
		}
	}
}

// unmountAndFsck closes every mount, which returns each client's chunks to
// the shards that granted them, and fscks every shard.
func unmountAndFsck(t *testing.T, c *Cluster) {
	t.Helper()
	for i, m := range c.Mounts {
		if err := m.Close(); err != nil {
			t.Errorf("close client %d: %v", i, err)
		}
	}
	for i, st := range c.Stores {
		if r := st.Fsck(c.AGTotals[i]); !r.OK() {
			t.Errorf("shard %d: %v: %v", i, r, r.Problems)
		}
	}
}

// TestShardedDelegationWorkloads runs the paper's deployment — delayed commit
// with space delegation — on 2 and 4 metadata shards. Each shard delegates
// chunks of its own slice of the array and each client carves a file's space
// from its home shard's pool, so every shard grants chunks, no op fails, no
// commit names undurable data, and every shard's books balance.
func TestShardedDelegationWorkloads(t *testing.T) {
	for _, shards := range []int{2, 4} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			opt := lifecycleOptions(shards)
			opt.DelegationChunk = 1 << 20
			c := Build(SysRedbudDCSD, opt)
			defer c.Close()
			for _, spec := range []workload.Spec{
				workload.Xcdn(32<<10, opt.Seed).Scale(0.1),
				workload.Varmail(opt.Seed).Scale(0.1),
			} {
				res, err := RunDistributed(c, spec)
				if err != nil {
					t.Fatalf("%s: %v", spec.Name, err)
				}
				if res.Errors > 0 {
					t.Errorf("%s: %d op errors", spec.Name, res.Errors)
				}
			}
			if v := c.Violations(); len(v) > 0 {
				t.Errorf("ordered-write violations: %v", v)
			}
			for i, st := range c.Stores {
				if bad := st.CheckConsistent(c.Durable); len(bad) > 0 {
					t.Errorf("shard %d: committed extents over undurable data: %+v", i, bad)
				}
				granted := 0
				for j := range c.Redbud {
					granted += st.Delegations(fmt.Sprintf("client-%d", j))
				}
				if granted == 0 {
					t.Errorf("shard %d granted no delegation", i)
				}
			}
			unmountAndFsck(t, c)
		})
	}
}

// TestShardedDelegationRestart: a crash-restart of shard 1 costs a client
// only the pool of chunks shard 1 granted. Shard 0's grants stand and the
// client keeps carving from them, while shard 1's recovered store, which
// reclaimed its grants, delegates the client a fresh chunk for its next file
// there.
func TestShardedDelegationRestart(t *testing.T) {
	opt := lifecycleOptions(2)
	opt.DelegationChunk = 1 << 20
	c := Build(SysRedbudDCSD, opt)
	defer c.Close()
	const owner = "client-0"
	for _, w := range []struct {
		client int
		path   string
	}{{0, shardPath("a", 0, 2)}, {0, shardPath("a", 1, 2)}, {1, shardPath("peer", 1, 2)}} {
		if err := writeSynced(c.Mounts[w.client], w.path); err != nil {
			t.Fatalf("client %d: %s: %v", w.client, w.path, err)
		}
	}
	before := c.Stores[0].Delegations(owner)
	if before == 0 || c.Stores[1].Delegations(owner) == 0 {
		t.Fatalf("%s holds %d delegations on shard 0 and %d on shard 1, want some on both",
			owner, before, c.Stores[1].Delegations(owner))
	}
	if err := c.RestartShard(1); err != nil {
		t.Fatal(err)
	}
	if n := c.Stores[1].Delegations(owner); n != 0 {
		t.Fatalf("recovered shard 1 still lists %d delegations of %s", n, owner)
	}
	// Another client's file is not served from a file delegation, so its Stat
	// reaches shard 1: the client redials and learns of the restart.
	if _, err := c.Mounts[0].Stat(shardPath("peer", 1, 2)); err != nil {
		t.Fatal(err)
	}
	for s := 0; s < 2; s++ {
		if err := writeSynced(c.Mounts[0], shardPath("b", s, 2)); err != nil {
			t.Fatalf("write on shard %d after the restart: %v", s, err)
		}
	}
	if got := c.Stores[0].Delegations(owner); got != before {
		t.Errorf("shard 0 lists %d delegations of %s after shard 1's restart, want the %d it granted before",
			got, owner, before)
	}
	if c.Stores[1].Delegations(owner) == 0 {
		t.Error("shard 1 granted no fresh chunk after its restart")
	}
	if v := c.Violations(); len(v) > 0 {
		t.Errorf("ordered-write violations: %v", v)
	}
	// The other mounts reconnect to shard 1 the same way, through a file they
	// hold no delegation on, so that they can return their chunks at unmount.
	for i := 1; i < len(c.Mounts); i++ {
		if _, err := c.Mounts[i].Stat(shardPath("a", 1, 2)); err != nil {
			t.Fatalf("client %d: %v", i, err)
		}
	}
	unmountAndFsck(t, c)
}
