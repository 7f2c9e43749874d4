package client

import (
	"bytes"
	"errors"
	"net"
	"testing"

	"redbud/internal/alloc"
	"redbud/internal/blockdev"
	"redbud/internal/clock"
	"redbud/internal/fsapi"
	"redbud/internal/mds"
	"redbud/internal/meta"
	"redbud/internal/netsim"
	"redbud/internal/rpc"
	"redbud/internal/san"
)

// TestFullStackOverTCP runs the complete deployment path inside the suite:
// MDS and SAN disk server on real TCP loopback sockets, a client mounted
// against both, delayed commit end to end, and a reopen served from the
// client's file delegation. This is exactly what cmd/redbud-mds +
// cmd/redbud-disk + cmd/redbud-client assemble.
func TestFullStackOverTCP(t *testing.T) {
	clk := clock.Real(1)

	// Disk server.
	disk := blockdev.New(blockdev.Config{ID: 0, Size: 1 << 30, Model: blockdev.FastHDD(), Clock: clk})
	t.Cleanup(disk.Close)
	sanSrv := san.NewServer(disk, clk, 8)
	t.Cleanup(sanSrv.Close)
	diskL, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { diskL.Close() })
	go func() {
		for {
			conn, err := diskL.Accept()
			if err != nil {
				return
			}
			go sanSrv.ServeConn(netsim.FrameConn(conn))
		}
	}()

	// MDS with a journaled store.
	metaDev := blockdev.New(blockdev.Config{ID: 1000, Size: 256 << 20, Model: blockdev.FastHDD(), Clock: clk})
	t.Cleanup(metaDev.Close)
	ags := alloc.NewUniformAGSet(0, 1<<30, 4)
	journal := meta.NewJournal(metaDev, 0, 128<<20)
	store := meta.NewStore(meta.Config{AGs: ags, Journal: journal, Clock: clk})
	mdsSrv := mds.New(mds.Config{Store: store, Clock: clk, Daemons: 4})
	t.Cleanup(mdsSrv.Close)
	mdsL, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { mdsL.Close() })
	go func() {
		for {
			conn, err := mdsL.Accept()
			if err != nil {
				return
			}
			go mdsSrv.ServeConn(netsim.FrameConn(conn))
		}
	}()

	// Client over both sockets.
	mconn, err := net.Dial("tcp", mdsL.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	dconn, err := net.Dial("tcp", diskL.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	remote := san.NewRemoteDevice(netsim.FrameConn(dconn), clk)
	c := New(Config{
		Name:            "tcp-client",
		MDS:             rpc.NewClient(netsim.FrameConn(mconn), clk),
		Devices:         map[uint32]BlockDevice{0: remote},
		Clock:           clk,
		Mode:            DelayedCommit,
		DelegationChunk: 4 << 20,
	})

	// Exercise the namespace and data paths.
	if err := c.Mkdir("/docs"); err != nil {
		t.Fatal(err)
	}
	data := pattern(48<<10, 5)
	f, err := c.Create("/docs/report.bin")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt(data, 0); err != nil {
		t.Fatal(err)
	}
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}
	f.Close()
	// The client said hello at mount, so the file it created is delegated
	// to it and the reopen is served from memory.
	h, err := c.Open("/docs/report.bin")
	if err != nil {
		t.Fatal(err)
	}
	h.Close()
	if hits := c.st.openHits.Load(); hits < 1 {
		t.Fatalf("reopen of the client's own file: %d open hits, want it served from its delegation", hits)
	}
	if err := c.Rename("/docs/report.bin", "/docs/final.bin"); err != nil {
		t.Fatal(err)
	}
	g, err := c.Open("/docs/final.bin")
	if err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(data))
	n, err := g.ReadAt(got, 0)
	g.Close()
	if err != nil || n != len(data) || !bytes.Equal(got, data) {
		t.Fatalf("TCP round trip: n=%d err=%v", n, err)
	}
	// A refusal keeps its kind over real sockets, whatever the name says.
	nf, err := c.Create("/docs/not found")
	if err != nil {
		t.Fatal(err)
	}
	nf.Close()
	if _, err := c.Create("/docs/not found"); !errors.Is(err, fsapi.ErrExist) {
		t.Fatalf("second create of /docs/not found over TCP = %v, want fsapi.ErrExist", err)
	}
	if _, err := c.Open("/docs/already exists"); !errors.Is(err, fsapi.ErrNotExist) {
		t.Fatalf("open of a missing file over TCP = %v, want fsapi.ErrNotExist", err)
	}
	if err := c.Remove("/docs"); !errors.Is(err, fsapi.ErrNotEmpty) {
		t.Fatalf("remove of a non-empty directory over TCP = %v, want fsapi.ErrNotEmpty", err)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}

	// The write went through the SAN to the real device, and the commit
	// referenced durable bytes only.
	if disk.Stats().BytesWrite < int64(len(data)) {
		t.Fatalf("disk saw %d bytes", disk.Stats().BytesWrite)
	}
	bad := store.CheckConsistent(func(dev int, off, sz int64) bool { return disk.IsDurable(off, sz) })
	if len(bad) != 0 {
		t.Fatalf("%d inconsistent extents over TCP", len(bad))
	}
	if r := store.Fsck(meta.TotalSpace(ags)); !r.OK() {
		t.Fatalf("fsck: %v", r.Problems)
	}
}
