// Package san exports a simulated block device over the network, standing in
// for the paper's fiber-channel fabric in the real (multi-process, TCP)
// deployment: cmd/redbud-disk serves devices, and clients mount them as
// client.BlockDevice via RemoteDevice. The in-process simulation bypasses
// this and attaches devices directly.
package san

import (
	"fmt"

	"redbud/internal/blockdev"
	"redbud/internal/clock"
	"redbud/internal/netsim"
	"redbud/internal/rpc"
	"redbud/internal/wire"
)

// Operation codes.
const (
	opWrite uint16 = iota + 1
	opRead
)

type writeReq struct {
	Off  int64
	Data []byte
}

func (m *writeReq) MarshalWire(b *wire.Buffer) {
	b.PutI64(m.Off)
	b.PutBytes(m.Data)
}

// UnmarshalWire copies Data: the handler hands it to the device, which keeps
// it, while the request frame is recycled once the handler returns.
func (m *writeReq) UnmarshalWire(r *wire.Reader) error {
	m.Off = r.I64()
	m.Data = r.Bytes()
	return r.Err()
}

type readReq struct {
	Off int64
	N   int64
}

func (m *readReq) MarshalWire(b *wire.Buffer) {
	b.PutI64(m.Off)
	b.PutI64(m.N)
}

func (m *readReq) UnmarshalWire(r *wire.Reader) error {
	m.Off = r.I64()
	m.N = r.I64()
	return r.Err()
}

type dataResp struct{ Data []byte }

func (m *dataResp) MarshalWire(b *wire.Buffer) { b.PutBytes(m.Data) }

// UnmarshalWire must copy: dataResp is decoded client-side and Data escapes
// to the caller (RemoteDevice.Read returns it) while rpc.Client recycles the
// response frame immediately after wire.Decode.
func (m *dataResp) UnmarshalWire(r *wire.Reader) error { m.Data = r.Bytes(); return r.Err() }

// Server exports one device.
type Server struct {
	dev *blockdev.Device
	rpc *rpc.Server
}

// NewServer wraps dev with an RPC daemon pool.
func NewServer(dev *blockdev.Device, clk clock.Clock, daemons int) *Server {
	if dev == nil {
		panic("san: nil device")
	}
	if daemons <= 0 {
		daemons = 16
	}
	s := &Server{dev: dev}
	s.rpc = rpc.NewServer(rpc.ServerConfig{Handler: s.handle, Daemons: daemons, Clock: clk})
	return s
}

// Serve accepts connections until the listener closes.
func (s *Server) Serve(l *netsim.Listener) { s.rpc.Serve(l) }

// ServeConn serves one connection.
func (s *Server) ServeConn(c netsim.Conn) { s.rpc.ServeConn(c) }

// Close stops the daemon pool.
func (s *Server) Close() { s.rpc.Close() }

func (s *Server) handle(op uint16, body []byte) ([]byte, error) {
	switch op {
	case opWrite:
		var req writeReq
		if err := wire.Decode(body, &req); err != nil {
			return nil, err
		}
		return nil, s.dev.Write(req.Off, req.Data)
	case opRead:
		var req readReq
		if err := wire.Decode(body, &req); err != nil {
			return nil, err
		}
		data, err := s.dev.Read(req.Off, req.N)
		if err != nil {
			return nil, err
		}
		return wire.Encode(&dataResp{Data: data}), nil
	}
	return nil, fmt.Errorf("san: unknown op %d", op)
}

// RemoteDevice is a network-attached block device implementing
// client.BlockDevice.
type RemoteDevice struct {
	rpcc *rpc.Client
}

// NewRemoteDevice wraps an established connection to a san.Server.
func NewRemoteDevice(conn netsim.Conn, clk clock.Clock) *RemoteDevice {
	return &RemoteDevice{rpcc: rpc.NewClient(conn, clk)}
}

// WriteAsync submits the write over the network; done receives the result
// when the remote device reports durability. As with a local device, p is
// the device's from the call on: it is encoded into the request frame later,
// on the goroutine that waits for the reply.
func (d *RemoteDevice) WriteAsync(off int64, p []byte, done func(error)) {
	go func() { done(d.Write(off, p)) }()
}

// Write blocks until the remote write is durable.
func (d *RemoteDevice) Write(off int64, p []byte) error {
	return d.rpcc.Call(opWrite, &writeReq{Off: off, Data: p}, nil)
}

// Read fetches n bytes at off.
func (d *RemoteDevice) Read(off, n int64) ([]byte, error) {
	var resp dataResp
	if err := d.rpcc.Call(opRead, &readReq{Off: off, N: n}, &resp); err != nil {
		return nil, err
	}
	return resp.Data, nil
}

// Close tears down the connection.
func (d *RemoteDevice) Close() error { return d.rpcc.Close() }
