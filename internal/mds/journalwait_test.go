package mds

import (
	"testing"
	"time"

	"redbud/internal/meta"
	"redbud/internal/proto"
	"redbud/internal/wire"
)

// Every journaled operation the MDS serves is applied on a daemon and waits
// for its journal record on its connection's completion stage. With one
// daemon and the journal write parked, a GetAttr sent after the operation
// must be answered while the operation's own reply is still owed.
func TestNoDaemonWaitsForTheJournal(t *testing.T) {
	root := meta.RootID
	call := func(t *testing.T, je *journaledEnv, op uint16, req wire.Marshaler, resp wire.Unmarshaler) {
		t.Helper()
		if err := je.cli.Call(op, req, resp); err != nil {
			t.Fatal(err)
		}
	}
	detached := func(t *testing.T, je *journaledEnv, name string) meta.FileID {
		t.Helper()
		var a proto.AttrResp
		call(t, je, proto.OpCreateDetached, &proto.CreateDetachedReq{Parent: root, Name: name, Type: meta.TypeFile}, &a)
		return a.ID
	}
	for _, tc := range []struct {
		name   string
		shards int
		// setup runs with the journal flowing and returns the operation to
		// send with it parked.
		setup func(t *testing.T, je *journaledEnv) (uint16, wire.Marshaler)
	}{
		{"create", 1, func(*testing.T, *journaledEnv) (uint16, wire.Marshaler) {
			return proto.OpCreate, &proto.CreateReq{Parent: root, Name: "f", Type: meta.TypeFile, Deleg: as("c1", 0)}
		}},
		{"mkdir", 1, func(*testing.T, *journaledEnv) (uint16, wire.Marshaler) {
			return proto.OpCreate, &proto.CreateReq{Parent: root, Name: "d", Type: meta.TypeDir}
		}},
		{"remove", 1, func(t *testing.T, je *journaledEnv) (uint16, wire.Marshaler) {
			je.create(t, root, "f", meta.TypeFile)
			return proto.OpRemove, &proto.RemoveReq{Parent: root, Name: "f"}
		}},
		{"rename", 1, func(t *testing.T, je *journaledEnv) (uint16, wire.Marshaler) {
			je.create(t, root, "f", meta.TypeFile)
			return proto.OpRename, &proto.RenameReq{SrcParent: root, SrcName: "f", DstParent: root, DstName: "g"}
		}},
		{"layout-get-write", 1, func(t *testing.T, je *journaledEnv) (uint16, wire.Marshaler) {
			a := je.create(t, root, "f", meta.TypeFile)
			return proto.OpLayoutGet, &proto.LayoutGetReq{Owner: "c1", File: a.ID, Len: 4096, Flags: meta.LayoutWrite}
		}},
		{"delegate", 1, func(*testing.T, *journaledEnv) (uint16, wire.Marshaler) {
			return proto.OpDelegate, &proto.DelegateReq{Owner: "c1", Size: 1 << 20}
		}},
		{"delegation-return", 1, func(t *testing.T, je *journaledEnv) (uint16, wire.Marshaler) {
			var sp proto.SpanMsg
			call(t, je, proto.OpDelegate, &proto.DelegateReq{Owner: "c1", Size: 1 << 20}, &sp)
			return proto.OpDelegReturn, &proto.DelegReturnReq{Owner: "c1", Span: sp}
		}},
		{"commit", 1, func(t *testing.T, je *journaledEnv) (uint16, wire.Marshaler) {
			a := je.create(t, root, "f", meta.TypeFile)
			var lay proto.LayoutResp
			call(t, je, proto.OpLayoutGet, &proto.LayoutGetReq{Owner: "c1", File: a.ID, Len: 4096, Flags: meta.LayoutWrite}, &lay)
			return proto.OpCommit, &proto.CommitReq{Owner: "c1", File: a.ID, Size: 4096, MTime: time.Unix(7, 0).UTC(), CommitID: 1, Extents: lay.Extents}
		}},
		{"create-detached", 2, func(*testing.T, *journaledEnv) (uint16, wire.Marshaler) {
			return proto.OpCreateDetached, &proto.CreateDetachedReq{Parent: root, Name: "f", Type: meta.TypeFile}
		}},
		{"link-remote", 2, func(*testing.T, *journaledEnv) (uint16, wire.Marshaler) {
			return proto.OpLinkRemote, &proto.LinkRemoteReq{Parent: root, Name: "f", Child: 1 << 20, Type: meta.TypeFile}
		}},
		{"unlink-remote", 2, func(t *testing.T, je *journaledEnv) (uint16, wire.Marshaler) {
			call(t, je, proto.OpLinkRemote, &proto.LinkRemoteReq{Parent: root, Name: "f", Child: 1 << 20, Type: meta.TypeFile}, nil)
			return proto.OpUnlinkRemote, &proto.UnlinkRemoteReq{Parent: root, Name: "f", Child: 1 << 20}
		}},
		{"ns-prepare", 2, func(t *testing.T, je *journaledEnv) (uint16, wire.Marshaler) {
			id := detached(t, je, "f")
			call(t, je, proto.OpNSCommit, &proto.NSCommitReq{File: id, Kind: meta.NSCreate}, nil)
			return proto.OpNSPrepare, &proto.NSPrepareReq{File: id, Kind: meta.NSRemove, Type: meta.TypeFile, Parent: root, Name: "f"}
		}},
		{"ns-commit", 2, func(t *testing.T, je *journaledEnv) (uint16, wire.Marshaler) {
			return proto.OpNSCommit, &proto.NSCommitReq{File: detached(t, je, "f"), Kind: meta.NSCreate}
		}},
		{"ns-abort", 2, func(t *testing.T, je *journaledEnv) (uint16, wire.Marshaler) {
			return proto.OpNSAbort, &proto.NSAbortReq{File: detached(t, je, "f"), Kind: meta.NSCreate}
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			// The root's shard, so that dirent operations under it are local.
			je := newShardEnv(t, nil, meta.ShardOf(root, tc.shards), tc.shards)
			// Runs before the server closes, which waits for what is owed.
			t.Cleanup(func() { je.hold.Store(false) })
			op, req := tc.setup(t, je)
			appends0, _ := je.journal.GroupCommitStats()

			je.hold.Store(true)
			first := je.calling(op, req)
			deadline := time.Now().Add(5 * time.Second)
			for appends, _ := je.journal.GroupCommitStats(); appends == appends0; appends, _ = je.journal.GroupCommitStats() {
				if time.Now().After(deadline) {
					t.Fatal("the operation never reached the journal")
				}
				time.Sleep(100 * time.Microsecond)
			}
			second := je.calling(proto.OpGetAttr, &proto.GetAttrReq{ID: root})
			finished(t, second, "while the first operation's journal write is parked: the only daemon waits for it")
			pending(t, first, "before its journal record was durable")
			je.hold.Store(false)
			finished(t, first, "once its journal record was durable")
		})
	}
}
