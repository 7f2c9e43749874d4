package baseline

import (
	"bytes"
	"errors"
	"fmt"
	"sync"
	"testing"

	"redbud/internal/blockdev"
	"redbud/internal/clock"
	"redbud/internal/fsapi"
	"redbud/internal/netsim"
)

// newMount builds a server plus one mounted client over an instant network.
func newMount(t *testing.T) (*NFS3Client, *NFS3Server, *blockdev.Device) {
	t.Helper()
	clk := clock.Real(1)
	disk := blockdev.New(blockdev.Config{Size: 1 << 30, Model: blockdev.ZeroLatency(), Clock: clk})
	t.Cleanup(disk.Close)
	srv := NewNFS3Server(NFS3Config{Disk: disk, Clock: clk})
	t.Cleanup(srv.Close)
	n := netsim.NewNetwork(clk)
	n.AddHost("nfs", netsim.Instant())
	n.AddHost("c", netsim.Instant())
	l, err := n.Listen("nfs")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(l)
	t.Cleanup(func() { l.Close() })
	conn, err := n.Dial("c", "nfs")
	if err != nil {
		t.Fatal(err)
	}
	c := NewNFS3Client(conn, clk)
	t.Cleanup(func() { c.Close() })
	return c, srv, disk
}

func TestWriteReadRoundTrip(t *testing.T) {
	c, _, _ := newMount(t)
	f, err := c.Create("/a.txt")
	if err != nil {
		t.Fatal(err)
	}
	data := bytes.Repeat([]byte("nfs!"), 3000)
	if _, err := f.WriteAt(data, 0); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(data))
	n, err := f.ReadAt(got, 0)
	if err != nil || n != len(data) {
		t.Fatalf("read = %d, %v", n, err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("mismatch")
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestCloseCommitsToDisk(t *testing.T) {
	c, _, disk := newMount(t)
	f, _ := c.Create("/durable")
	f.WriteAt(bytes.Repeat([]byte{7}, 8192), 0)
	before := disk.Stats().BytesWrite
	if before != 0 {
		t.Fatalf("unstable write hit the disk early: %d", before)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	if got := disk.Stats().BytesWrite; got < 8192 {
		t.Fatalf("commit flushed only %d bytes", got)
	}
}

func TestAppendAndSize(t *testing.T) {
	c, _, _ := newMount(t)
	f, _ := c.Create("/log")
	for i := 0; i < 5; i++ {
		off, err := f.Append([]byte("0123456789"))
		if err != nil || off != int64(i*10) {
			t.Fatalf("append %d: off=%d err=%v", i, off, err)
		}
	}
	if f.Size() != 50 {
		t.Fatalf("size = %d", f.Size())
	}
}

func TestAllDataFlowsThroughServer(t *testing.T) {
	// The architectural property that bottlenecks NFS3: a second client
	// reads what the first wrote, all via server memory.
	clk := clock.Real(1)
	disk := blockdev.New(blockdev.Config{Size: 1 << 30, Model: blockdev.ZeroLatency(), Clock: clk})
	defer disk.Close()
	srv := NewNFS3Server(NFS3Config{Disk: disk, Clock: clk})
	defer srv.Close()
	n := netsim.NewNetwork(clk)
	n.AddHost("nfs", netsim.Instant())
	l, _ := n.Listen("nfs")
	defer l.Close()
	go srv.Serve(l)

	mount := func(host string) *NFS3Client {
		n.AddHost(host, netsim.Instant())
		conn, err := n.Dial(host, "nfs")
		if err != nil {
			t.Fatal(err)
		}
		return NewNFS3Client(conn, clk)
	}
	w, r := mount("w"), mount("r")
	defer w.Close()
	defer r.Close()
	f, _ := w.Create("/shared")
	data := bytes.Repeat([]byte{9}, 5000)
	f.WriteAt(data, 0)
	// Visible to the other client immediately (single server, no
	// distributed update).
	g, err := r.Open("/shared")
	if err != nil {
		t.Fatal(err)
	}
	got := make([]byte, 5000)
	if n, err := g.ReadAt(got, 0); err != nil || n != 5000 {
		t.Fatalf("read = %d, %v", n, err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("cross-client mismatch")
	}
}

func TestConcurrentClients(t *testing.T) {
	c, _, _ := newMount(t)
	var wg sync.WaitGroup
	for g := 0; g < 6; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 15; i++ {
				path := fmt.Sprintf("/f-%d-%d", g, i)
				f, err := c.Create(path)
				if err != nil {
					t.Error(err)
					return
				}
				payload := bytes.Repeat([]byte{byte(g)}, 1000)
				f.WriteAt(payload, 0)
				got := make([]byte, 1000)
				f.ReadAt(got, 0)
				if !bytes.Equal(got, payload) {
					t.Errorf("%s mismatch", path)
				}
				f.Close()
			}
		}()
	}
	wg.Wait()
	if c.RPCs() == 0 {
		t.Fatal("no RPCs counted")
	}
}

func TestRemoveFreesDiskSpace(t *testing.T) {
	c, srv, _ := newMount(t)
	f, _ := c.Create("/bulky")
	f.WriteAt(bytes.Repeat([]byte{1}, 64<<10), 0)
	f.Close() // flush
	free1 := srv.ag.FreeBytes()
	if err := c.Remove("/bulky"); err != nil {
		t.Fatal(err)
	}
	if free2 := srv.ag.FreeBytes(); free2 <= free1 {
		t.Fatalf("remove did not free space: %d -> %d", free1, free2)
	}
}

func TestSparseReadZeros(t *testing.T) {
	c, _, _ := newMount(t)
	f, _ := c.Create("/sparse")
	f.WriteAt([]byte("end"), 10000)
	got := make([]byte, 100)
	n, err := f.ReadAt(got, 0)
	if err != nil || n != 100 {
		t.Fatalf("read = %d, %v", n, err)
	}
	for _, b := range got {
		if b != 0 {
			t.Fatal("hole not zero")
		}
	}
	// Read past EOF.
	if n, _ := f.ReadAt(got, 20000); n != 0 {
		t.Fatalf("past-EOF read = %d", n)
	}
}

func TestDoubleClientClose(t *testing.T) {
	c, _, _ := newMount(t)
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	if err := c.Close(); !errors.Is(err, fsapi.ErrClosed) {
		t.Fatalf("double close = %v", err)
	}
}
