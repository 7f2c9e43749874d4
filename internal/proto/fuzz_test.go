package proto

import (
	"testing"

	"redbud/internal/meta"
	"redbud/internal/wire"
)

// FuzzShardMap fuzzes the shard partition and its wire transport together:
// every inode resolves to exactly one in-range shard, resolution and
// placement are pure functions of their inputs (so a re-handshake can never
// move an inode), and the shard map a hello reply carries survives the
// codec, and a reply cut short of its coordinates is refused.
func FuzzShardMap(f *testing.F) {
	f.Add(uint64(1), uint32(1), uint64(1), "f")
	f.Add(uint64(64), uint32(2), uint64(7), "dir")
	f.Add(uint64(1<<40), uint32(8), uint64(0), "")
	f.Add(uint64(12345), uint32(5), uint64(99), "a/b")

	f.Fuzz(func(t *testing.T, id uint64, shardsRaw uint32, inc uint64, name string) {
		n := int(shardsRaw%8) + 1
		file := meta.FileID(id)

		s := meta.ShardOf(file, n)
		if s < 0 || s >= n {
			t.Fatalf("ShardOf(%d, %d) = %d out of range", id, n, s)
		}
		if again := meta.ShardOf(file, n); again != s {
			t.Fatalf("ShardOf(%d, %d) unstable across re-resolution: %d then %d", id, n, s, again)
		}
		p := meta.PlaceShard(file, name, n)
		if p < 0 || p >= n {
			t.Fatalf("PlaceShard(%d, %q, %d) = %d out of range", id, name, n, p)
		}
		if again := meta.PlaceShard(file, name, n); again != p {
			t.Fatalf("PlaceShard(%d, %q, %d) unstable: %d then %d", id, name, n, again, p)
		}

		// The handshake round-trips the shard coordinates exactly, and a
		// second decode of the same frame (a client re-handshaking after a
		// reconnect) reproduces the same map.
		in := &HelloResp{Incarnation: inc, ProtoVersion: ProtoV5, ShardIndex: uint32(s), ShardCount: uint32(n)}
		frame := wire.Encode(in)
		var out HelloResp
		if err := wire.Decode(frame, &out); err != nil {
			t.Fatalf("decode hello: %v", err)
		}
		if out != *in {
			t.Fatalf("shard map mutated in transit: sent %+v, got %+v", *in, out)
		}
		var out2 HelloResp
		if err := wire.Decode(frame, &out2); err != nil {
			t.Fatalf("re-decode hello: %v", err)
		}
		if out2 != out {
			t.Fatalf("re-handshake decoded a different map: %+v then %+v", out, out2)
		}

		// A reply without its shard coordinates is an error, never a
		// single-shard default: a client must not route by a map it was
		// not sent.
		if err := wire.Decode(frame[:len(frame)-8], &HelloResp{}); err == nil {
			t.Fatal("a hello reply without shard coordinates decoded")
		}
	})
}
