package chaos

import (
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"time"

	"redbud/internal/bench"
	"redbud/internal/fsapi"
	"redbud/internal/meta"
	"redbud/internal/netsim"
)

// The shared-file scenario: where Run gives every client a namespace of its
// own, RunShared has all of them re-open and mutate ONE small set of files —
// the access pattern file delegations exist to get right. Every client holds
// delegations on what it last created, serves its own opens from memory, and
// has them recalled by the other clients' appends, removes, re-creates and
// renames, while the fault plan drops and delays the frames that carry the
// recalls, partitions the holders, and restarts the MDS under all of it.
//
// The oracle is the store: every Open and Stat a client completes is compared
// with what the MDS holds for that path. To make that comparison exact, the
// harness — not the file system — serializes the operations on one path (the
// paths are few, the clients' work on *different* paths overlaps freely, and
// that is where a holder is busy elsewhere while its file is taken away), and
// after a mutation that failed it waits until whatever is left of it on the
// wire or in an MDS queue has either happened or died, before the path is
// touched again.

const (
	sharedFiles = 6
	sharedDir   = "/shared"
	sharedBlock = 4096
	// sharedSettle outlasts anything a failed mutation can have left behind:
	// a request parked in a recall wait applies within one DelegTerm of its
	// arrival, which was before the caller gave up on it.
	sharedSettle = meta.DelegTerm + meta.DelegTerm/4
)

// SharedReport is what a RunShared leaves behind for assertions.
type SharedReport struct {
	// Ops and OpErrors count the operations issued and those that failed
	// (expected under faults; a clean failure is not a breach).
	Ops, OpErrors int64
	// Checked counts the Open and Stat results compared with the store;
	// Mismatches describes every one the store contradicted. Must stay empty.
	Checked    int64
	Mismatches []string
	// OpenHits counts the opens and stats served from a delegation;
	// Deleg is the MDS-side view, summed over incarnations and shards.
	OpenHits int64
	Deleg    meta.DelegStats
	// Restarts counts completed mid-run MDS restarts.
	Restarts int
	// Violations are ordered-write breaches, Fscks each shard's end-of-run
	// check, ClusterIssues the cross-shard one. All must stay clean.
	Violations    []string
	Fscks         []meta.FsckReport
	ClusterIssues []string
	// Faults holds the network fault-injection counters.
	Faults netsim.FaultStats
}

// sharedRun is the state of one RunShared.
type sharedRun struct {
	c     *bench.Cluster
	rep   *SharedReport
	start time.Time

	// stores guards the cluster's store slice against the restart loop, which
	// swaps its elements; the oracle reads under it.
	stores sync.RWMutex
	// paths[i] serializes the operations on shared file i.
	paths [sharedFiles]sync.Mutex
	// dirty[client][i]: an append of this client to file i failed, so its
	// local size may legitimately run ahead of the MDS until it commits again
	// or the file is replaced. Guarded by paths[i].
	dirty [][sharedFiles]bool
	// hist[i] is what happened to file i, oldest first, for the report of a
	// mismatch. Guarded by paths[i].
	hist [sharedFiles][]string

	mu sync.Mutex // guards rep's counters and Mismatches
}

// note records one event in file i's history.
func (r *sharedRun) note(client, i int, what string, err error) {
	r.hist[i] = append(r.hist[i], fmt.Sprintf("%v client-%d %s: %v", r.c.Clock.Since(r.start).Round(time.Microsecond), client, what, err))
}

// recent renders the tail of file i's history.
func (r *sharedRun) recent(i int) string {
	h := r.hist[i]
	if len(h) > 24 {
		h = h[len(h)-24:]
	}
	return "\n      " + strings.Join(h, "\n      ")
}

func sharedPath(i int) string { return fmt.Sprintf("%s/f%d", sharedDir, i) }

// truth asks the store(s) what path resolves to.
func (r *sharedRun) truth(path string) (size int64, exists bool) {
	r.stores.RLock()
	defer r.stores.RUnlock()
	stores := r.c.Stores
	id := meta.RootID
	for _, part := range fsapi.SplitPath(path) {
		a, err := stores[meta.ShardOf(id, len(stores))].Lookup(id, part)
		if err != nil {
			return 0, false
		}
		id = a.ID
	}
	// The size is with the inode, which may be homed on another shard than
	// its dirent.
	a, err := stores[meta.ShardOf(id, len(stores))].GetAttr(id)
	if err != nil {
		return 0, false
	}
	return a.Size, true
}

// check compares what client saw of file i with the store. Called with the
// path's lock held, so nothing can have changed in between.
func (r *sharedRun) check(client, i int, what string, err error, size int64) {
	var sawExists bool
	switch {
	case err == nil:
		sawExists = true
	case errors.Is(err, fsapi.ErrNotExist):
	default:
		return // a transport failure says nothing about the cache
	}
	wantSize, exists := r.truth(sharedPath(i))
	r.note(client, i, fmt.Sprintf("%s = size %d (store: exists %v, size %d)", what, size, exists, wantSize), err)
	r.mu.Lock()
	defer r.mu.Unlock()
	r.rep.Checked++
	switch {
	case sawExists != exists:
		r.rep.Mismatches = append(r.rep.Mismatches, fmt.Sprintf("client-%d %s(%s): exists=%v (err %v), the store says exists=%v; history:%s",
			client, what, sharedPath(i), sawExists, err, exists, r.recent(i)))
	case exists && size != wantSize && !r.dirty[client][i]:
		r.rep.Mismatches = append(r.rep.Mismatches, fmt.Sprintf("client-%d %s(%s): size %d, the store has %d; history:%s",
			client, what, sharedPath(i), size, wantSize, r.recent(i)))
	}
}

// replaced notes that file i is a new inode (or gone): no client's local
// state of the old one matters any more.
func (r *sharedRun) replaced(i int) {
	for c := range r.dirty {
		r.dirty[c][i] = false
	}
}

// moved notes that the inode of file i is now file j, and i is gone: what a
// client knows of the inode travels with it.
func (r *sharedRun) moved(i, j int) {
	for c := range r.dirty {
		r.dirty[c][j], r.dirty[c][i] = r.dirty[c][i], false
	}
}

// mutated accounts for a mutation's outcome; a failed one is given time to
// finish happening, or not, before the path is released.
func (r *sharedRun) mutated(err error) bool {
	if err == nil {
		return true
	}
	r.mu.Lock()
	r.rep.OpErrors++
	r.mu.Unlock()
	r.c.Clock.Sleep(sharedSettle)
	return false
}

// writeBlock appends one block to path through fs and commits it.
func writeBlock(fs fsapi.FileSystem, path string, create bool) error {
	open := fs.Open
	if create {
		open = fs.Create
	}
	f, err := open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	if _, err := f.Append(make([]byte, sharedBlock)); err != nil {
		return err
	}
	return f.Sync()
}

// stat is the read every branch of thread falls back on.
func (r *sharedRun) stat(client, i int, fs fsapi.FileSystem) {
	info, err := fs.Stat(sharedPath(i))
	r.check(client, i, "Stat", err, info.Size)
}

// thread is one application thread of one client. A mutation is only issued
// when the store says it can succeed, so that one which fails has failed for
// the fault plan's reasons and is given time to settle; otherwise the thread
// reads instead.
func (r *sharedRun) thread(client int, fs fsapi.FileSystem, rng *rand.Rand, ops int, think time.Duration) {
	for n := 0; n < ops; n++ {
		i := rng.Intn(sharedFiles)
		path := sharedPath(i)
		r.mu.Lock()
		r.rep.Ops++
		r.mu.Unlock()
		r.paths[i].Lock()
		_, exists := r.truth(path)
		switch op := rng.Intn(10); {
		case op < 3: // open
			f, err := fs.Open(path)
			var size int64
			if err == nil {
				size = f.Size()
				f.Close()
			}
			r.check(client, i, "Open", err, size)
		case op < 5: // stat
			r.stat(client, i, fs)
		case op < 7 && exists: // append + sync
			err := writeBlock(fs, path, false)
			r.note(client, i, "append", err)
			r.dirty[client][i] = !r.mutated(err)
		case op < 8 && exists: // remove
			err := fs.Remove(path)
			r.note(client, i, "remove", err)
			if r.mutated(err) {
				r.replaced(i)
			}
		case op < 9 && !exists: // (re-)create
			err := writeBlock(fs, path, true)
			r.note(client, i, "create", err)
			if r.mutated(err) {
				r.replaced(i)
			} else {
				r.dirty[client][i] = true // it may exist, shorter than this client thinks
			}
		case op == 9 && exists: // rename to a shared name that is free
			j := rng.Intn(sharedFiles - 1)
			if j >= i {
				j++
			}
			// Two path locks are taken in index order; i's is given up first
			// when it is the larger, and the world may have moved on since.
			if j < i {
				r.paths[i].Unlock()
				r.paths[j].Lock()
				r.paths[i].Lock()
			} else {
				r.paths[j].Lock()
			}
			_, src := r.truth(path)
			if _, dst := r.truth(sharedPath(j)); src && !dst {
				err := fs.Rename(path, sharedPath(j))
				r.note(client, i, fmt.Sprintf("rename to f%d", j), err)
				r.note(client, j, fmt.Sprintf("rename from f%d", i), err)
				if r.mutated(err) {
					r.moved(i, j)
				}
			}
			r.paths[j].Unlock()
		default:
			r.stat(client, i, fs)
		}
		r.paths[i].Unlock()
		if think > 0 {
			r.c.Clock.Sleep(think)
		}
	}
}

// RunShared executes one shared-file chaos run. It uses Seed, Shards,
// Clients, Threads, Ops, Mode, Think, Delegation, Retry, Net, Restarts and
// RestartEvery of cfg; the file population and the op mix are the scenario's
// own. A non-nil error means the harness itself failed.
func RunShared(cfg Config) (*SharedReport, error) {
	c := build(&cfg)
	defer c.Close()
	r := &sharedRun{c: c, rep: &SharedReport{}, start: c.Clock.Now(), dirty: make([][sharedFiles]bool, cfg.Clients)}

	// The population, created through the first mount with the faults held
	// off: the scenario starts from a known namespace.
	c.Net.ClearFaults()
	if err := c.Mounts[0].Mkdir(sharedDir); err != nil {
		return r.rep, fmt.Errorf("chaos: shared set-up: %w", err)
	}
	for i := 0; i < sharedFiles; i++ {
		if err := writeBlock(c.Mounts[0], sharedPath(i), true); err != nil {
			return r.rep, fmt.Errorf("chaos: shared set-up: %w", err)
		}
	}
	plan := cfg.Net
	if plan.Seed == 0 {
		plan.Seed = cfg.Seed
	}
	if planActive(plan) {
		c.Net.InstallFaults(plan)
	}

	var wg sync.WaitGroup
	for ci, m := range c.Mounts {
		for t := 0; t < cfg.Threads; t++ {
			wg.Add(1)
			rng := rand.New(rand.NewSource(cfg.Seed + int64(ci+1)*7919 + int64(t)*104729))
			go func() {
				defer wg.Done()
				r.thread(ci, m, rng, cfg.Ops, cfg.Think)
			}()
		}
	}

	// Delegation counters die with an MDS incarnation; collect them on the way.
	collect := func(st *meta.Store) {
		d := st.FileDelegs().Stats()
		r.rep.Deleg.Grants += d.Grants
		r.rep.Deleg.Recalls += d.Recalls
		r.rep.Deleg.Lapses += d.Lapses
	}
	restartRng := rand.New(rand.NewSource(cfg.Seed ^ 0x7e57a7))
	var restartErr error
	for n := 0; n < cfg.Restarts; n++ {
		c.Clock.Sleep(cfg.RestartEvery)
		i := restartRng.Intn(cfg.Shards)
		r.stores.Lock()
		collect(c.Stores[i])
		restartErr = c.RestartShard(i)
		r.stores.Unlock()
		restarted := fmt.Sprintf("%v shard %d restarted", c.Clock.Since(r.start).Round(time.Microsecond), i)
		for f := range r.hist {
			r.paths[f].Lock()
			r.hist[f] = append(r.hist[f], restarted)
			r.paths[f].Unlock()
		}
		if restartErr != nil {
			restartErr = fmt.Errorf("chaos: restart %d: %w", n+1, restartErr)
			break
		}
		r.rep.Restarts++
	}
	wg.Wait()
	r.rep.Faults = netsim.FaultsIn(c.Registry.Snapshot())
	c.Net.ClearFaults()
	if restartErr != nil {
		return r.rep, restartErr
	}

	// The faulty phase is over. One last look at every path through every
	// mount: whatever a client still caches must be the truth.
	c.Clock.Sleep(sharedSettle)
	for ci, m := range c.Mounts {
		for i := 0; i < sharedFiles; i++ {
			r.paths[i].Lock()
			info, err := m.Stat(sharedPath(i))
			r.check(ci, i, "final Stat", err, info.Size)
			r.paths[i].Unlock()
		}
	}
	for ci, cl := range c.Redbud {
		for _, m := range c.Registry.Snapshot().Metrics {
			if m.Name == "redbud_client_open_hits_total" && m.Labels == fmt.Sprintf(`client="client-%d"`, ci) {
				r.rep.OpenHits += m.Value
			}
		}
		_ = cl.Close() // may hold uncommittable state after a restart
		for _, st := range c.Stores {
			st.ClientGone(fmt.Sprintf("client-%d", ci))
		}
	}
	for _, st := range c.Stores {
		collect(st)
	}
	if cfg.Shards > 1 {
		if err := meta.ResolveNSIntents(c.Stores); err != nil {
			return r.rep, fmt.Errorf("chaos: intent resolution: %w", err)
		}
		r.rep.ClusterIssues = meta.FsckCluster(c.Stores)
	}
	for i, st := range c.Stores {
		r.rep.Fscks = append(r.rep.Fscks, st.Fsck(c.AGTotals[i]))
	}
	r.rep.Violations = c.Violations()
	return r.rep, nil
}
