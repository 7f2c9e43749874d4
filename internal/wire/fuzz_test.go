package wire

import (
	"bytes"
	"errors"
	"testing"
)

// FuzzFrameDecode fuzzes the RPC response-frame decode sequence (message ID,
// kind, status, load, length-prefixed payload) against two properties: a
// failed decode reports a wrapped ErrTruncated/ErrTooLong sentinel, and a
// successful decode round-trips — re-encoding the decoded fields reproduces
// the consumed bytes exactly.
func FuzzFrameDecode(f *testing.F) {
	// Seeds: the two malformed response frames from the rpc ErrBadFrame
	// tests (truncated after the message ID; payload length overrunning the
	// frame), plus a well-formed frame.
	var short Buffer
	short.PutU64(7)
	f.Add(short.Bytes())

	var overrun Buffer
	overrun.PutU64(7)
	overrun.PutU8(1)
	overrun.PutU16(0)
	overrun.PutU8(0)
	overrun.PutU32(1 << 20) // payload length with no payload bytes
	f.Add(overrun.Bytes())

	var good Buffer
	good.PutU64(42)
	good.PutU8(1)
	good.PutU16(3)
	good.PutU8(200)
	good.PutBytes([]byte("payload"))
	f.Add(good.Bytes())

	// A Hello frame: the payload is proto.HelloReq's encoding — owner
	// string plus the protocol version (built by hand; proto imports wire,
	// so wire's tests cannot import proto).
	var helloBody Buffer
	helloBody.PutString("owner-1")
	helloBody.PutU32(5) // protocol version
	var hello Buffer
	hello.PutU64(43)
	hello.PutU8(1)
	hello.PutU16(0)
	hello.PutU8(0)
	hello.PutBytes(helloBody.Bytes())
	f.Add(hello.Bytes())

	// The same Hello cut where the version would begin: a well-formed
	// frame whose payload proto refuses as short.
	var helloShortBody Buffer
	helloShortBody.PutString("owner-1")
	var helloShort Buffer
	helloShort.PutU64(44)
	helloShort.PutU8(1)
	helloShort.PutU16(0)
	helloShort.PutU8(0)
	helloShort.PutBytes(helloShortBody.Bytes())
	f.Add(helloShort.Bytes())

	// A Hello reply frame: the payload carries the shard map —
	// incarnation, protocol version, then the ShardIndex and ShardCount a
	// sharded MDS advertises.
	var shardBody Buffer
	shardBody.PutU64(9) // incarnation
	shardBody.PutU32(5) // protocol version
	shardBody.PutU32(2) // ShardIndex
	shardBody.PutU32(4) // ShardCount
	var shardMap Buffer
	shardMap.PutU64(45)
	shardMap.PutU8(1)
	shardMap.PutU16(0)
	shardMap.PutU8(0)
	shardMap.PutBytes(shardBody.Bytes())
	f.Add(shardMap.Bytes())

	// The same reply cut where ShardIndex would begin: a well-formed frame
	// whose payload proto refuses as short.
	var shardShortBody Buffer
	shardShortBody.PutU64(9)
	shardShortBody.PutU32(5) // protocol version, no shard fields
	var shardShort Buffer
	shardShort.PutU64(46)
	shardShort.PutU8(1)
	shardShort.PutU16(0)
	shardShort.PutU8(0)
	shardShort.PutBytes(shardShortBody.Bytes())
	f.Add(shardShort.Bytes())

	// A v4 traced commit frame: the payload is proto.CommitReq's v4 encoding
	// — owner, file, size, mtime, commit ID, one extent, then the
	// trailing-optional TraceCtx pair (trace ID, parent span ID).
	commitBody := func(traced bool) []byte {
		var b Buffer
		b.PutString("owner-1") // owner
		b.PutU64(7)            // file ID
		b.PutI64(4096)         // size
		b.PutI64(1_000_000)    // mtime (unix nanos)
		b.PutU64(99)           // commit ID
		b.PutU32(1)            // one extent
		b.PutI64(0)            // extent: file offset
		b.PutI64(4096)         // extent: length
		b.PutU32(0)            // extent: device
		b.PutI64(8192)         // extent: volume offset
		b.PutU8(0)             // extent: state
		if traced {
			b.PutU64(0xdeadbeef) // TraceCtx.TraceID
			b.PutU64(0xcafe)     // TraceCtx.SpanID
		}
		return b.Bytes()
	}
	var traced Buffer
	traced.PutU64(47)
	traced.PutU8(1)
	traced.PutU16(0)
	traced.PutU8(0)
	traced.PutBytes(commitBody(true))
	f.Add(traced.Bytes())

	// The same commit truncated exactly at the trace boundary: the payload
	// stops where TraceCtx would begin — the pre-v4 frame shape a v4 decoder
	// must read as "untraced", not as an error.
	var untraced Buffer
	untraced.PutU64(48)
	untraced.PutU8(1)
	untraced.PutU16(0)
	untraced.PutU8(0)
	untraced.PutBytes(commitBody(false))
	f.Add(untraced.Bytes())

	// v5 delegation frames, each with its truncation at the optional
	// boundary (the v4 shape a v5 decoder must read as "anonymous" / "no
	// grant"): a proto.LookupReq with its trailing DelegCtx (owner, ack), a
	// proto.AttrResp with its trailing group (granted, recall seq, recall
	// list), and a proto.NSPrepareReq whose DelegCtx nests inside the v4
	// TraceCtx group.
	frame := func(id uint64, body []byte) []byte {
		var b Buffer
		b.PutU64(id)
		b.PutU8(1)
		b.PutU16(0)
		b.PutU8(0)
		b.PutBytes(body)
		return b.Bytes()
	}
	lookupBody := func(owned bool) []byte {
		var b Buffer
		b.PutU64(1)      // parent
		b.PutString("f") // name
		if owned {
			b.PutString("owner-1") // DelegCtx.Owner
			b.PutU64(3)            // DelegCtx.Ack
		}
		return b.Bytes()
	}
	f.Add(frame(49, lookupBody(true)))
	f.Add(frame(50, lookupBody(false)))
	attrBody := func(deleg bool) []byte {
		var b Buffer
		b.PutU64(7)         // inode
		b.PutU8(0)          // type
		b.PutI64(4096)      // size
		b.PutI64(1_000_000) // mtime
		if deleg {
			b.PutBool(true) // Granted
			b.PutU64(5)     // RecallSeq
			b.PutU32(2)     // two recalls
			b.PutU64(9)
			b.PutU64(0) // RecallAll
		}
		return b.Bytes()
	}
	f.Add(frame(51, attrBody(true)))
	f.Add(frame(52, attrBody(false)))
	prepareBody := func(trace, owned bool) []byte {
		var b Buffer
		b.PutU64(2)      // file
		b.PutU8(2)       // kind: remove
		b.PutU8(0)       // type
		b.PutU64(1)      // parent
		b.PutString("a") // name
		b.PutU64(0)      // dst parent
		b.PutString("")  // dst name
		if trace {
			b.PutU64(0) // zero TraceCtx: untraced, present for the owner's sake
			b.PutU64(0)
		}
		if owned {
			b.PutString("owner-1")
			b.PutU64(3)
		}
		return b.Bytes()
	}
	f.Add(frame(53, prepareBody(true, true)))
	f.Add(frame(54, prepareBody(true, false)))
	f.Add(frame(55, prepareBody(false, false)))

	f.Fuzz(func(t *testing.T, data []byte) {
		r := NewReader(data)
		id := r.U64()
		kind := r.U8()
		status := r.U16()
		load := r.U8()
		payload := r.BytesRef()
		if err := r.Err(); err != nil {
			if !errors.Is(err, ErrTruncated) && !errors.Is(err, ErrTooLong) {
				t.Fatalf("decode error is not ErrTruncated/ErrTooLong: %v", err)
			}
			return
		}
		var b Buffer
		b.PutU64(id)
		b.PutU8(kind)
		b.PutU16(status)
		b.PutU8(load)
		b.PutBytes(payload)
		consumed := len(data) - r.Remaining()
		if !bytes.Equal(b.Bytes(), data[:consumed]) {
			t.Fatalf("round-trip mismatch:\n consumed: %x\n re-encoded: %x", data[:consumed], b.Bytes())
		}
	})
}
