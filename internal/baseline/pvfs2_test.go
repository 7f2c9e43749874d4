package baseline

import (
	"bytes"
	"errors"
	"fmt"
	"testing"

	"redbud/internal/blockdev"
	"redbud/internal/clock"
	"redbud/internal/fsapi"
	"redbud/internal/netsim"
	"redbud/internal/wire"
)

// cluster is a meta server + K data servers + a client factory.
type cluster struct {
	t     *testing.T
	clk   clock.Clock
	net   *netsim.Network
	disks []*blockdev.Device
	nhost int
}

func newCluster(t *testing.T, k int) *cluster {
	t.Helper()
	clk := clock.Real(1)
	n := netsim.NewNetwork(clk)
	c := &cluster{t: t, clk: clk, net: n}

	n.AddHost("meta", netsim.Instant())
	ml, err := n.Listen("meta")
	if err != nil {
		t.Fatal(err)
	}
	ms := NewPVFS2MetaServer(clk, 8, 0)
	t.Cleanup(ms.Close)
	go ms.Serve(ml)
	t.Cleanup(func() { ml.Close() })

	for i := 0; i < k; i++ {
		host := fmt.Sprintf("data%d", i)
		n.AddHost(host, netsim.Instant())
		disk := blockdev.New(blockdev.Config{ID: i, Size: 1 << 30, Model: blockdev.ZeroLatency(), Clock: clk})
		t.Cleanup(disk.Close)
		c.disks = append(c.disks, disk)
		ds := NewPVFS2DataServer(disk, clk, 8)
		t.Cleanup(ds.Close)
		dl, err := n.Listen(host)
		if err != nil {
			t.Fatal(err)
		}
		go ds.Serve(dl)
		t.Cleanup(func() { dl.Close() })
	}
	return c
}

func (c *cluster) mount() *PVFS2Client {
	c.t.Helper()
	c.nhost++
	host := fmt.Sprintf("client%d", c.nhost)
	c.net.AddHost(host, netsim.Instant())
	mconn, err := c.net.Dial(host, "meta")
	if err != nil {
		c.t.Fatal(err)
	}
	var dconns []netsim.Conn
	for i := range c.disks {
		dc, err := c.net.Dial(host, fmt.Sprintf("data%d", i))
		if err != nil {
			c.t.Fatal(err)
		}
		dconns = append(dconns, dc)
	}
	cl := NewPVFS2Client(mconn, dconns, c.clk)
	c.t.Cleanup(func() { cl.Close() })
	return cl
}

func TestRoundTripSmall(t *testing.T) {
	c := newCluster(t, 4).mount()
	f, err := c.Create("/s")
	if err != nil {
		t.Fatal(err)
	}
	data := []byte("tiny write")
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
}

func TestLargeWriteStripesAcrossServers(t *testing.T) {
	cl := newCluster(t, 4)
	c := cl.mount()
	f, _ := c.Create("/big")
	data := make([]byte, 1<<20)
	for i := range data {
		data[i] = byte(i * 31)
	}
	if _, err := f.WriteAt(data, 0); err != nil {
		t.Fatal(err)
	}
	// Every data server received some stripes.
	for i, d := range cl.disks {
		if d.Stats().BytesWrite == 0 {
			t.Fatalf("data server %d received nothing", i)
		}
	}
	got := make([]byte, len(data))
	if n, err := f.ReadAt(got, 0); err != nil || n != len(data) {
		t.Fatalf("read = %d, %v", n, err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("striped content mismatch")
	}
}

func TestUnalignedOffsets(t *testing.T) {
	c := newCluster(t, 3).mount()
	f, _ := c.Create("/odd")
	data := bytes.Repeat([]byte{0xAB}, 200000) // spans several stripes
	off := int64(StripeUnit - 1234)            // straddles a boundary
	if _, err := f.WriteAt(data, off); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(data))
	if n, err := f.ReadAt(got, off); err != nil || n != len(data) {
		t.Fatalf("read = %d, %v", n, err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("unaligned mismatch")
	}
}

func TestCrossClientVisibility(t *testing.T) {
	cl := newCluster(t, 2)
	w, r := cl.mount(), cl.mount()
	f, _ := w.Create("/shared")
	data := bytes.Repeat([]byte{5}, 100000)
	f.WriteAt(data, 0)
	// Synchronous system: immediately visible.
	g, err := r.Open("/shared")
	if err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(data))
	if n, err := g.ReadAt(got, 0); err != nil || n != len(data) {
		t.Fatalf("read = %d, %v", n, err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("mismatch")
	}
}

func TestWriteCollectiveCoalesces(t *testing.T) {
	cl := newCluster(t, 4)
	c := cl.mount()
	fh, _ := c.Create("/bt")
	f := fh.(*pvfsFile)
	// 64 interleaved 4 KiB blocks, shuffled: collective I/O coalesces
	// them into one contiguous run.
	var blocks []fsapi.CollectiveBlock
	for i := 63; i >= 0; i-- {
		blocks = append(blocks, fsapi.CollectiveBlock{Off: int64(i) * 4096, Data: bytes.Repeat([]byte{byte(i)}, 4096)})
	}
	rpcsBefore := c.RPCs()
	if err := f.WriteCollective(blocks); err != nil {
		t.Fatal(err)
	}
	rpcs := c.RPCs() - rpcsBefore
	// 256 KiB contiguous = 4 stripes + 1 setsize; far fewer than 64
	// individual writes (64 data + 64 setsize).
	if rpcs > 10 {
		t.Fatalf("collective write used %d RPCs", rpcs)
	}
	got := make([]byte, 64*4096)
	if n, err := f.ReadAt(got, 0); err != nil || n != len(got) {
		t.Fatalf("read = %d, %v", n, err)
	}
	for i := 0; i < 64; i++ {
		if got[i*4096] != byte(i) {
			t.Fatalf("block %d corrupted", i)
		}
	}
}

func TestWriteCollectiveNonContiguous(t *testing.T) {
	c := newCluster(t, 2).mount()
	fh, _ := c.Create("/gaps")
	f := fh.(*pvfsFile)
	blocks := []fsapi.CollectiveBlock{
		{Off: 0, Data: []byte("aaa")},
		{Off: 100, Data: []byte("bbb")},
	}
	if err := f.WriteCollective(blocks); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, 103)
	if _, err := f.ReadAt(got, 0); err != nil {
		t.Fatal(err)
	}
	if string(got[:3]) != "aaa" || string(got[100:]) != "bbb" {
		t.Fatalf("content = %q", got)
	}
	if err := f.WriteCollective(nil); err != nil {
		t.Fatal(err)
	}
}

func TestRemoveFreesStripes(t *testing.T) {
	cl := newCluster(t, 2)
	c := cl.mount()
	f, _ := c.Create("/bulky")
	f.WriteAt(make([]byte, 512<<10), 0)
	if err := c.Remove("/bulky"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Stat("/bulky"); !errors.Is(err, fsapi.ErrNotExist) {
		t.Fatal("file still visible")
	}
	// A new file can reuse the space without overlap errors.
	g, _ := c.Create("/reuse")
	if _, err := g.WriteAt(make([]byte, 512<<10), 0); err != nil {
		t.Fatal(err)
	}
}

func TestAppendSparseEOF(t *testing.T) {
	c := newCluster(t, 2).mount()
	f, _ := c.Create("/log")
	if off, err := f.Append([]byte("one")); err != nil || off != 0 {
		t.Fatalf("append = %d, %v", off, err)
	}
	if off, err := f.Append([]byte("two")); err != nil || off != 3 {
		t.Fatalf("append = %d, %v", off, err)
	}
	if f.Size() != 6 {
		t.Fatalf("size = %d", f.Size())
	}
	buf := make([]byte, 10)
	if n, _ := f.ReadAt(buf, 100); n != 0 {
		t.Fatalf("past-EOF read = %d", n)
	}
	if f.Sync() != nil || f.Close() != nil {
		t.Fatal("sync/close errored")
	}
}

// TestPVFS2DataWriteSurvivesFrameReuse: the RPC layer recycles a request
// frame as soon as the handler returns, and the disk keeps the buffer it is
// handed, so the data server must hand it a copy of the payload.
func TestPVFS2DataWriteSurvivesFrameReuse(t *testing.T) {
	clk := clock.Real(1)
	disk := blockdev.New(blockdev.Config{Size: 1 << 24, Model: blockdev.ZeroLatency(), Clock: clk})
	defer disk.Close()
	ds := NewPVFS2DataServer(disk, clk, 1)
	defer ds.Close()
	data := make([]byte, 2*4096+100) // whole pages and a partial one
	for i := range data {
		data[i] = byte(i * 7)
	}
	frame := wire.Encode(&writeReq{ID: 1, Off: 0, Data: data})
	if _, err := ds.handle(pvfsDataWrite, frame); err != nil {
		t.Fatal(err)
	}
	for i := range frame {
		frame[i] = 0xee
	}
	resp, err := ds.handle(pvfsDataRead, wire.Encode(&readReq{ID: 1, Off: 0, N: int64(len(data))}))
	if err != nil {
		t.Fatal(err)
	}
	var got dataResp
	if err := wire.Decode(resp, &got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Data, data) {
		t.Fatal("stored write changed with its recycled request frame")
	}
}
