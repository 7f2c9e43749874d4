package client

import (
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"redbud/internal/alloc"
	"redbud/internal/blockdev"
	"redbud/internal/clock"
	"redbud/internal/fsapi"
	"redbud/internal/mds"
	"redbud/internal/meta"
	"redbud/internal/netsim"
	"redbud/internal/proto"
	"redbud/internal/rpc"
)

// shardedCluster is an in-process multi-MDS deployment for exercising the
// client's cross-shard orchestration and shard-map checks.
type shardedCluster struct {
	t      *testing.T
	clk    clock.Clock
	net    *netsim.Network
	stores []*meta.Store
	data   map[uint32]*blockdev.Device
	nextID int
}

func newShardedCluster(t *testing.T, n int) *shardedCluster {
	t.Helper()
	clk := clock.Real(1)
	net := netsim.NewNetwork(clk)
	sc := &shardedCluster{t: t, clk: clk, net: net, data: map[uint32]*blockdev.Device{}}
	for i := 0; i < n; i++ {
		d := blockdev.New(blockdev.Config{ID: i, Size: 1 << 30, Model: blockdev.ZeroLatency(), Clock: clk})
		t.Cleanup(d.Close)
		sc.data[uint32(i)] = d
		store := meta.NewStore(meta.Config{
			AGs: alloc.NewUniformAGSet(i, 1<<30, 4), Clock: clk,
			Shard: i, ShardCount: n,
		})
		sc.stores = append(sc.stores, store)
		srv := mds.New(mds.Config{Store: store, Clock: clk, Daemons: 2, ShardIndex: uint32(i), ShardCount: uint32(n)})
		t.Cleanup(srv.Close)
		host := fmt.Sprintf("mds%d", i)
		net.AddHost(host, netsim.Instant())
		lis, err := net.Listen(host)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { lis.Close() })
		go srv.Serve(lis)
	}
	return sc
}

// dial opens one connection per shard from a fresh client host, in shard
// order.
func (sc *shardedCluster) dial() (string, []*rpc.Client) {
	sc.t.Helper()
	sc.nextID++
	host := fmt.Sprintf("client-%d", sc.nextID)
	sc.net.AddHost(host, netsim.Instant())
	conns := make([]*rpc.Client, len(sc.stores))
	for i := range conns {
		conn, err := sc.net.Dial(host, fmt.Sprintf("mds%d", i))
		if err != nil {
			sc.t.Fatal(err)
		}
		conns[i] = rpc.NewClient(conn, sc.clk)
	}
	return host, conns
}

// mount builds a client over the given connection slice.
func (sc *shardedCluster) mount(host string, conns []*rpc.Client) *Client {
	sc.t.Helper()
	devs := make(map[uint32]BlockDevice, len(sc.data))
	for id, d := range sc.data {
		devs[id] = d
	}
	return New(Config{Name: host, Shards: conns, Devices: devs, Clock: sc.clk, Mode: SyncCommit})
}

// settle waits out a store mutation applied with a Begin<Op>, or returns the
// store's refusal.
func settle(durable meta.Durable, err error) error {
	if err != nil {
		return err
	}
	_, err = durable()
	return err
}

// settled is settle for a Begin<Op> that also returns a value.
func settled[T any](v T, durable meta.Durable, err error) (T, error) {
	if err := settle(durable, err); err != nil {
		var zero T
		return zero, err
	}
	return v, nil
}

// crossShardFile plants a fully committed file whose dirent lives under root
// but whose inode is homed on a foreign shard, returning its id. Built at
// the store layer so placement is deterministic.
func (sc *shardedCluster) crossShardFile(name string) meta.FileID {
	sc.t.Helper()
	n := len(sc.stores)
	pi := meta.ShardOf(meta.RootID, n)
	ps, ts := sc.stores[pi], sc.stores[(pi+1)%n]
	f, err := settled(ts.BeginCreateDetached(time.Time{}, meta.RootID, name, meta.TypeFile))
	if err != nil {
		sc.t.Fatal(err)
	}
	if err := settle(ps.BeginLinkRemote(time.Time{}, meta.RootID, name, f.ID, meta.TypeFile)); err != nil {
		sc.t.Fatal(err)
	}
	if err := settle(ts.BeginNSCommit(time.Time{}, f.ID, meta.NSCreate)); err != nil {
		sc.t.Fatal(err)
	}
	return f.ID
}

func (sc *shardedCluster) fsckAll(when string) {
	sc.t.Helper()
	if probs := meta.FsckCluster(sc.stores); len(probs) != 0 {
		sc.t.Fatalf("fsck %s: %v", when, probs)
	}
}

// TestShardMapMismatchMarksLinkDead wires connection i to server (i+1)%n —
// the misconfiguration the hello shard map exists to catch. The mount must
// survive (a misconfigured server reply must never crash the client), and
// every operation routed through the miswired links must fail with the
// mismatch error instead of scattering the namespace across wrong shards.
func TestShardMapMismatchMarksLinkDead(t *testing.T) {
	sc := newShardedCluster(t, 2)
	host, conns := sc.dial()
	conns[0], conns[1] = conns[1], conns[0]
	cl := sc.mount(host, conns)
	defer cl.Close()

	_, err := cl.Stat("/")
	if err == nil {
		t.Fatal("Stat through a miswired link succeeded")
	}
	if !strings.Contains(err.Error(), "shard map mismatch") {
		t.Fatalf("Stat error = %v, want shard map mismatch", err)
	}
	if err := cl.Mkdir("/d"); err == nil {
		t.Fatal("Mkdir through a miswired link succeeded")
	}
	// Nothing leaked onto either store.
	sc.fsckAll("after miswired mount")
	for i, s := range sc.stores {
		if ents, err := s.ReadDir(meta.RootID); err == nil && len(ents) != 0 {
			t.Fatalf("shard %d namespace polluted: %v", i, ents)
		}
	}
}

// TestCrossShardRemoveAbortsOnlyOnDefinitiveFailure pins the abort rule: a
// RemoteError from the commit point proves the unlink did not execute, so
// the saga rolls its intent back; a transport failure proves nothing, so the
// intent must stay live for quiesced resolution instead of being aborted
// against a possibly-committed unlink.
func TestCrossShardRemoveAbortsOnlyOnDefinitiveFailure(t *testing.T) {
	t.Run("definitive", func(t *testing.T) {
		sc := newShardedCluster(t, 2)
		id := sc.crossShardFile("f")
		home := sc.stores[meta.ShardOf(id, 2)]
		ps := sc.stores[meta.ShardOf(meta.RootID, 2)]
		host, conns := sc.dial()
		cl := sc.mount(host, conns)
		defer cl.Close()

		// A rename slips in before the remove's commit point.
		if err := settle(ps.BeginRename(time.Time{}, "", meta.RootID, "f", meta.RootID, "g")); err != nil {
			t.Fatal(err)
		}
		// The commit point definitively refuses (entry moved), which the
		// saga maps to a not-exist error after rolling its intent back.
		err := cl.removeCrossShard(meta.RootID, "f", id)
		if !errors.Is(err, fsapi.ErrNotExist) {
			t.Fatalf("remove of a moved entry: %v, want ErrNotExist", err)
		}
		// The abort ran; the file survives under the new name.
		if ins := home.NSIntents(); len(ins) != 0 {
			t.Fatalf("intent not rolled back after definitive refusal: %+v", ins)
		}
		if got, err := ps.Lookup(meta.RootID, "g"); err != nil || got.ID != id {
			t.Fatalf("renamed entry lost: %+v, %v", got, err)
		}
		sc.fsckAll("after definitive refusal")
	})

	t.Run("ambiguous", func(t *testing.T) {
		sc := newShardedCluster(t, 2)
		id := sc.crossShardFile("f")
		home := sc.stores[meta.ShardOf(id, 2)]
		pi := meta.ShardOf(meta.RootID, 2)
		host, conns := sc.dial()
		cl := sc.mount(host, conns)
		defer cl.Close()

		// Kill the parent-shard connection: the commit-point RPC now fails
		// with a transport error that proves nothing about the server.
		m, _ := cl.links[pi].conn()
		m.Close()
		err := cl.removeCrossShard(meta.RootID, "f", id)
		if err == nil {
			t.Fatal("remove over a dead parent link succeeded")
		}
		if definitiveFailure(err) {
			t.Fatalf("transport failure classified definitive: %v", err)
		}
		// No abort was sent: the NSRemove intent is still live on the home
		// shard, waiting for resolution.
		ins := home.NSIntents()
		if len(ins) != 1 || ins[0].Kind != meta.NSRemove || ins[0].File != id {
			t.Fatalf("intent dropped after ambiguous failure: %+v", ins)
		}
		// Quiesced resolution probes the dirent — still present, commit
		// point never reached — and rolls the remove back.
		if err := meta.ResolveNSIntents(sc.stores); err != nil {
			t.Fatal(err)
		}
		if ins := home.NSIntents(); len(ins) != 0 {
			t.Fatalf("resolution left intents: %+v", ins)
		}
		if got, err := sc.stores[pi].Lookup(meta.RootID, "f"); err != nil || got.ID != id {
			t.Fatalf("file lost to a rolled-back remove: %+v, %v", got, err)
		}
		sc.fsckAll("after resolution")
	})
}

// TestDefinitiveFailureClassification pins the boundary the sagas key off.
func TestDefinitiveFailureClassification(t *testing.T) {
	re := &rpc.RemoteError{Op: 7, Message: "no"}
	cases := []struct {
		err  error
		want bool
	}{
		{re, true},
		{fmt.Errorf("remove: %w", re), true},
		{rpc.ErrTimeout, false},
		{rpc.ErrConnClosed, false},
		{rpc.ErrClientClosed, false},
		{fmt.Errorf("call: %w", rpc.ErrTimeout), false},
		{errors.New("opaque"), false},
		{nil, false},
	}
	for _, c := range cases {
		if got := definitiveFailure(c.err); got != c.want {
			t.Errorf("definitiveFailure(%v) = %v, want %v", c.err, got, c.want)
		}
	}
}

// TestDelegCtxWaitsForHello pins the per-link rule: a request names its
// delegation owner only on a link whose own hello has succeeded, so a client
// that could not yet detect that shard's restarts is never granted there,
// and one link's pending hello does not hold back another's.
func TestDelegCtxWaitsForHello(t *testing.T) {
	c := &Client{cfg: Config{Name: "c1"}, links: []*mdsLink{{shard: 0}, {shard: 1}}}
	c.links[1].ackSeq = 7
	c.links[1].helloed.Store(true)
	if dc := c.delegCtx(c.links[0]); dc != (proto.DelegCtx{}) {
		t.Fatalf("link without a hello sends %+v, want no delegation context", dc)
	}
	if dc := c.delegCtx(c.links[1]); dc != (proto.DelegCtx{Owner: "c1", Ack: 7}) {
		t.Fatalf("link after its hello sends %+v, want {c1 7}", dc)
	}
}
