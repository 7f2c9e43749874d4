package san

import (
	"bytes"
	"net"
	"testing"

	"redbud/internal/blockdev"
	"redbud/internal/client"
	"redbud/internal/clock"
	"redbud/internal/netsim"
	"redbud/internal/wire"
)

func newRemote(t *testing.T) (*RemoteDevice, *blockdev.Device) {
	t.Helper()
	clk := clock.Real(1)
	dev := blockdev.New(blockdev.Config{Size: 1 << 24, Model: blockdev.ZeroLatency(), Clock: clk})
	t.Cleanup(dev.Close)
	srv := NewServer(dev, clk, 4)
	t.Cleanup(srv.Close)
	n := netsim.NewNetwork(clk)
	n.AddHost("disk", netsim.Instant())
	n.AddHost("client", netsim.Instant())
	l, err := n.Listen("disk")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(l)
	t.Cleanup(func() { l.Close() })
	conn, err := n.Dial("client", "disk")
	if err != nil {
		t.Fatal(err)
	}
	rd := NewRemoteDevice(conn, clk)
	t.Cleanup(func() { rd.Close() })
	return rd, dev
}

func TestRemoteRoundTrip(t *testing.T) {
	rd, dev := newRemote(t)
	data := bytes.Repeat([]byte{0x5a}, 9000)
	if err := rd.Write(4096, data); err != nil {
		t.Fatal(err)
	}
	got, err := rd.Read(4096, 9000)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("remote read mismatch")
	}
	// Durability is visible on the underlying device.
	if !dev.IsDurable(4096, 9000) {
		t.Fatal("remote write not durable")
	}
}

func TestRemoteWriteAsync(t *testing.T) {
	rd, dev := newRemote(t)
	data := bytes.Repeat([]byte{0x3c}, 5000)
	done := make(chan error, 1)
	rd.WriteAsync(8192, data, func(err error) { done <- err })
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if !dev.IsDurable(8192, 5000) {
		t.Fatal("write reported before it was durable")
	}
	got, err := rd.Read(8192, 5000)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("remote read mismatch after WriteAsync")
	}
}

// TestServerWriteSurvivesFrameReuse: the RPC layer recycles a request frame
// as soon as the handler returns, and the device keeps the buffer it is
// handed, so the handler must hand it a copy of the payload, not the frame.
func TestServerWriteSurvivesFrameReuse(t *testing.T) {
	clk := clock.Real(1)
	dev := blockdev.New(blockdev.Config{Size: 1 << 20, Model: blockdev.ZeroLatency(), Clock: clk})
	defer dev.Close()
	srv := NewServer(dev, clk, 1)
	defer srv.Close()
	data := make([]byte, 3*4096+100) // whole pages and a partial one
	for i := range data {
		data[i] = byte(i * 7)
	}
	frame := wire.Encode(&writeReq{Off: 4096, Data: data})
	if _, err := srv.handle(opWrite, frame); err != nil {
		t.Fatal(err)
	}
	for i := range frame {
		frame[i] = 0xee
	}
	got, err := dev.Read(4096, int64(len(data)))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("stored write changed with its recycled request frame")
	}
}

func TestRemoteOutOfRange(t *testing.T) {
	rd, _ := newRemote(t)
	if err := rd.Write(1<<24, []byte("x")); err == nil {
		t.Fatal("out-of-range remote write accepted")
	}
}

func TestRemoteImplementsBlockDevice(t *testing.T) {
	var _ client.BlockDevice = (*RemoteDevice)(nil)
}

// TestOverTCP runs the SAN protocol over a real TCP loopback socket — the
// path the multi-process deployment uses.
func TestOverTCP(t *testing.T) {
	clk := clock.Real(1)
	dev := blockdev.New(blockdev.Config{Size: 1 << 20, Model: blockdev.ZeroLatency(), Clock: clk})
	defer dev.Close()
	srv := NewServer(dev, clk, 4)
	defer srv.Close()

	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	go func() {
		for {
			c, err := l.Accept()
			if err != nil {
				return
			}
			go srv.ServeConn(netsim.FrameConn(c))
		}
	}()

	nc, err := net.Dial("tcp", l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	rd := NewRemoteDevice(netsim.FrameConn(nc), clk)
	defer rd.Close()
	payload := bytes.Repeat([]byte{7}, 4096)
	if err := rd.Write(0, payload); err != nil {
		t.Fatal(err)
	}
	got, err := rd.Read(0, 4096)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatal("TCP SAN mismatch")
	}
}
