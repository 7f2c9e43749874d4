package client

import (
	"errors"
	"fmt"
	"strings"
	"time"

	"redbud/internal/fsapi"
	"redbud/internal/meta"
	"redbud/internal/obs"
	"redbud/internal/proto"
	"redbud/internal/wire"
)

// The client's name and attribute cache, and what keeps each part of it right
// when other clients change the namespace:
//
//   - Directory prefixes (dentry.file == false) are a hint, validated lazily:
//     every walk ends in an OpLookup under the cached directory, and a
//     not-found below a cached ancestor drops the whole prefix chain and walks
//     once more from the root.
//   - File leaves and their attributes are cached only under an exclusive MDS
//     delegation (meta/filedeleg.go): the reply that created or opened the
//     file granted it, nobody else can change what Lookup + GetAttr return for
//     it without the MDS recalling it first, and the cache is trusted only
//     while the per-shard lease — renewed by every attribute-bearing reply to
//     its send time + meta.DelegTerm — is live. Open, Stat and Remove share
//     one attribute path (attrOf): delegated and leased → the local fileState,
//     no RPC; anything else → the leaf OpLookup it costs anyway, whose reply
//     carries the attributes and the grant.
//   - Pages are what they were: valid for what this client wrote and read,
//     refreshed by nothing but a larger size at open.

// dentry is one dentry-cache entry.
type dentry struct {
	id meta.FileID
	// file marks a regular-file leaf, present only while its delegation is
	// held (fileState.deleg); everything else is a directory.
	file bool
	// mixed marks a path whose components are not all homed on one shard. A
	// foreign directory rename recalls delegations on the directory's shard
	// only, so a leaf is cached by name only below an unmixed path, where
	// every ancestor's rename happens on the shard that holds the delegation.
	mixed bool
}

// openOutcome says how an open (or stat) found its attributes.
type openOutcome uint8

const (
	openHit      openOutcome = iota // served from the delegation, no RPC
	openMiss                        // asked the MDS
	openRecalled                    // asked the MDS about a file whose delegation was recalled
)

var openSpanNames = [...]string{obs.SpanOpenHit, obs.SpanOpenMiss, obs.SpanOpenRecalled}

// canonPath is the dentry-cache key of a split path.
func canonPath(parts []string) string { return "/" + strings.Join(parts, "/") }

// ---------------------------------------------------------------------------
// Delegation bookkeeping. Everything here is guarded by Client.mu.

// delegCtx is the delegation context a request on l carries: the client's
// name and the newest recall it has processed from that shard. Until a hello
// to that shard has succeeded it is empty, which the encoders leave off the
// wire entirely.
func (c *Client) delegCtx(l *mdsLink) proto.DelegCtx {
	if !l.helloed.Load() {
		return proto.DelegCtx{}
	}
	c.mu.Lock()
	ack := l.ackSeq
	c.mu.Unlock()
	return proto.DelegCtx{Owner: c.cfg.Name, Ack: ack}
}

// attrCall issues one attribute-bearing RPC on l — dc points at the request's
// delegation context, which it fills in — and takes in everything the reply
// carries besides the attributes: it renews the shard's lease from the send
// time, drops what the MDS recalls (acknowledging at once), and clears
// resp.Granted unless the grant can be trusted.
func (c *Client) attrCall(l *mdsLink, op uint16, req wire.Marshaler, dc *proto.DelegCtx, resp *proto.AttrResp, idem bool) error {
	*dc = c.delegCtx(l)
	sent := c.clk.Now()
	var err error
	if idem {
		err = c.callIdem(l, op, req, resp)
	} else {
		mds, _ := l.conn()
		err = mds.Call(op, req, resp)
	}
	if err != nil || dc.Owner == "" {
		resp.Granted = false
		return err
	}
	c.mu.Lock()
	// A reply older than a recall this client has already acknowledged may
	// grant exactly what that recall took back; so may one that lists the
	// recall beside the grant.
	trusted := resp.Granted && resp.RecallSeq >= l.ackSeq
	if t := sent.Add(meta.DelegTerm); t.After(l.lease) {
		l.lease = t
	}
	for _, id := range resp.Recalls {
		if id == proto.RecallAll {
			c.dropShardDelegsLocked(l.shard, true)
			c.dcache = make(map[string]dentry)
			trusted = false
			continue
		}
		if id == resp.ID {
			trusted = false
		}
		if fs := c.files[id]; fs != nil {
			c.dropDelegLocked(fs)
			fs.recalled = true
		}
	}
	resp.Granted = trusted
	ack := resp.RecallSeq > l.ackSeq
	if ack {
		l.ackSeq = resp.RecallSeq
	}
	c.mu.Unlock()
	if ack && len(resp.Recalls) > 0 {
		// The mutation that recalled is waiting for this; the next request
		// would echo the number too, but may be a while. Best effort.
		mds, _ := l.conn()
		_ = mds.Call(proto.OpDelegAck, &proto.DelegCtx{Owner: c.cfg.Name, Ack: resp.RecallSeq}, nil)
	}
	return nil
}

// holdLocked records a granted delegation on fs, found as de at parts, whose
// MDS mtime is mtime. The leaf is cached by name too unless its path crosses
// shards (dentry.mixed). Caller holds c.mu.
func (c *Client) holdLocked(fs *fileState, de dentry, parts []string, mtime time.Time) {
	path := ""
	if !de.mixed {
		path = canonPath(parts)
	}
	if !fs.deleg {
		fs.deleg = true
		c.delegs.Add(1)
	}
	fs.recalled = false // a later MDS incarnation may grant what an earlier one recalled
	if fs.path != "" && fs.path != path {
		delete(c.dcache, fs.path)
	}
	fs.path = path
	if path != "" {
		c.dcache[path] = dentry{id: fs.id, file: true}
	}
	fs.mu.Lock()
	fs.attrMTime = mtime
	fs.mu.Unlock()
}

// dropDelegLocked forgets fs's delegation and the name cached under it.
// Caller holds c.mu.
func (c *Client) dropDelegLocked(fs *fileState) {
	if !fs.deleg {
		return
	}
	fs.deleg = false
	c.delegs.Add(-1)
	if fs.path != "" {
		delete(c.dcache, fs.path)
		fs.path = ""
	}
}

// dropDeleg is dropDelegLocked for callers that hold nothing.
func (c *Client) dropDeleg(fs *fileState) {
	c.mu.Lock()
	c.dropDelegLocked(fs)
	c.mu.Unlock()
}

// dropShardDelegsLocked forgets every delegation homed on shard (all shards
// when negative): the link was redialled or re-established, the MDS recalled
// everything, or the client is going away. Caller holds c.mu.
func (c *Client) dropShardDelegsLocked(shard int, recalled bool) {
	for _, fs := range c.files {
		if fs.deleg && (shard < 0 || c.shardOf(fs.id) == shard) {
			c.dropDelegLocked(fs)
			fs.recalled = fs.recalled || recalled
		}
	}
}

// flushNames empties the dentry cache, and so gives up every delegation: file
// leaves are cached under them.
func (c *Client) flushNames() {
	c.mu.Lock()
	c.dropShardDelegsLocked(-1, false)
	c.dcache = make(map[string]dentry)
	c.mu.Unlock()
}

// dropLinkDelegs ends the delegation session of one shard's link: nothing
// held there is trusted any more and the lease is gone until the next
// attribute-bearing reply. A re-established session (the MDS restarted) also
// starts the recall numbering over.
func (c *Client) dropLinkDelegs(l *mdsLink, restarted bool) {
	c.mu.Lock()
	c.dropShardDelegsLocked(l.shard, false)
	l.lease = time.Time{}
	if restarted {
		l.ackSeq = 0
	}
	c.mu.Unlock()
}

// cachedAttrLocked answers for path from a delegation, if the client holds
// one under that name and the shard's lease is live at now. Caller holds c.mu.
func (c *Client) cachedAttrLocked(path string, now time.Time) (proto.AttrResp, bool) {
	de, ok := c.dcache[path]
	if !ok || !de.file {
		return proto.AttrResp{}, false
	}
	return c.delegatedAttrLocked(de.id, now)
}

// delegatedAttrLocked describes inode id from its fileState if its delegation
// is held and leased at now: the attributes are what the MDS has, because
// only this client's own commits can have changed them. Caller holds c.mu.
func (c *Client) delegatedAttrLocked(id meta.FileID, now time.Time) (proto.AttrResp, bool) {
	fs := c.files[id]
	if fs == nil || !fs.deleg || !now.Before(c.shardFor(id).lease) {
		return proto.AttrResp{}, false
	}
	fs.mu.Lock()
	a := proto.AttrResp{ID: id, Type: meta.TypeFile, Size: fs.committedSize, MTime: fs.attrMTime}
	fs.mu.Unlock()
	return a, true
}

// ---------------------------------------------------------------------------
// Path resolution

// lookup resolves name under dir on dir's home shard.
func (c *Client) lookup(dir meta.FileID, name string) (proto.AttrResp, error) {
	req := proto.LookupReq{Parent: dir, Name: name}
	var resp proto.AttrResp
	err := c.attrCall(c.shardFor(dir), proto.OpLookup, &req, &req.Deleg, &resp, true)
	return resp, err
}

// getAttr fetches an inode's attributes from its home shard.
func (c *Client) getAttr(id meta.FileID) (proto.AttrResp, error) {
	req := proto.GetAttrReq{ID: id}
	var resp proto.AttrResp
	err := c.attrCall(c.shardFor(id), proto.OpGetAttr, &req, &req.Deleg, &resp, true)
	return resp, err
}

// child is the dentry of inode id found under dir.
func (c *Client) child(dir dentry, id meta.FileID) dentry {
	return dentry{id: id, mixed: dir.mixed || c.shardOf(id) != c.shardOf(dir.id)}
}

// walkParent resolves the directory holding the last component of parts,
// starting from the deepest ancestor the dentry cache knows rather than from
// the root, and caching the directories it passes. cached reports that a
// cached ancestor was trusted: a not-found at or below it may only mean the
// entry is stale.
func (c *Client) walkParent(parts []string) (dir dentry, cached bool, err error) {
	dir = dentry{id: meta.RootID}
	k := 0
	c.mu.Lock()
	for n := len(parts) - 1; n > 0; n-- {
		if de, ok := c.dcache[canonPath(parts[:n])]; ok && !de.file {
			dir, k, cached = de, n, true
			break
		}
	}
	c.mu.Unlock()
	for ; k < len(parts)-1; k++ {
		// Each component's dirent lives on its parent's home shard.
		a, err := c.lookup(dir.id, parts[k])
		if err != nil {
			return dir, cached, err
		}
		dir = c.child(dir, a.ID)
		if a.Type == meta.TypeDir {
			c.mu.Lock()
			c.dcache[canonPath(parts[:k+1])] = dir
			c.mu.Unlock()
		}
	}
	return dir, cached, nil
}

// withParent runs op on the directory holding path's last component. A
// not-found that came through a cached ancestor — the walk's, or op's own —
// drops the path's whole prefix chain and runs everything once more from the
// root: another client may have removed or replaced a directory on the way.
func (c *Client) withParent(path string, op func(dir dentry, parts []string) error) error {
	parts := fsapi.SplitPath(path)
	if len(parts) == 0 {
		return fmt.Errorf("%w: %q has no parent", fsapi.ErrInvalid, path)
	}
	for fresh := false; ; fresh = true {
		dir, cached, err := c.walkParent(parts)
		if err == nil {
			err = op(dir, parts)
		}
		if err == nil || fresh || !cached || !errors.Is(err, fsapi.ErrNotExist) {
			return err
		}
		c.dropPrefixes(parts)
	}
}

// dropPrefixes forgets every cached ancestor of parts.
func (c *Client) dropPrefixes(parts []string) {
	c.mu.Lock()
	for n := 1; n < len(parts); n++ {
		delete(c.dcache, canonPath(parts[:n]))
	}
	c.mu.Unlock()
}

// attrOf is the one attribute path behind Open, Stat and Remove. A file whose
// delegation this client holds, under a live lease, is described from its
// fileState with no RPC; everything else is asked for with the leaf OpLookup
// under the (cached) parent — one RPC on one shard, whose reply brings the
// attributes and, for a regular file nobody else holds, the delegation. A
// child homed on another shard than its dirent needs the home shard's GetAttr
// on top, unless its attributes are delegated.
func (c *Client) attrOf(path string, now time.Time) (a proto.AttrResp, how openOutcome, err error) {
	c.mu.Lock()
	a, ok := c.cachedAttrLocked(path, now)
	c.mu.Unlock()
	if ok {
		c.st.openHits.Inc()
		return a, openHit, nil
	}
	c.st.openMisses.Inc()
	how = openMiss
	if len(fsapi.SplitPath(path)) == 0 {
		a, err = c.getAttr(meta.RootID)
		return a, how, err
	}
	err = c.withParent(path, func(dir dentry, parts []string) error {
		var err error
		if a, err = c.lookup(dir.id, parts[len(parts)-1]); err != nil {
			return err
		}
		de := c.child(dir, a.ID)
		remote := c.shardOf(a.ID) != c.shardOf(dir.id)
		if remote {
			// The parent shard's edge record knows only name and type; the
			// attributes (and the delegation) live with the inode.
			c.mu.Lock()
			held, ok := c.delegatedAttrLocked(a.ID, c.clk.Now())
			c.mu.Unlock()
			if ok {
				a = held
			} else if a, err = c.getAttr(a.ID); err != nil {
				return err
			}
		}
		c.mu.Lock()
		switch {
		case a.Type == meta.TypeDir:
			c.dcache[canonPath(parts)] = de
		case a.Granted:
			c.holdLocked(c.fileStateLocked(a.ID, a.Size), de, parts, a.MTime)
		}
		if fs := c.files[a.ID]; fs != nil && fs.recalled {
			how = openRecalled
		}
		c.mu.Unlock()
		return nil
	})
	return a, how, err
}
