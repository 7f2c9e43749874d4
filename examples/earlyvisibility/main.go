// Early visibility for uncommitted writes: one client writes through
// delayed commit while its commit queue is busy, and a second mount polls
// until it observes the data. With early visibility off the reader waits
// for the writer's commit to drain through the queue; with it on the
// reader is served through the layout intent path as soon as the data
// is durable on the array. The example runs both settings and prints the
// time-to-visibility each achieved, using only the public redbud facade.
//
// Space delegation stays off: intents are published when the MDS
// allocates, and a delegated writer allocates locally, disclosing extents
// only at commit.
package main

import (
	"fmt"
	"log"
	"time"

	"redbud"
)

const (
	path      = "/shared.dat"
	size      = 64 << 10
	bgFiles   = 24
	timeScale = 0.05
)

// timeToVisibility measures how long after a write returns a second mount
// first observes the written bytes, with the writer's commit queue kept
// busy by a background re-dirty load.
func timeToVisibility(early bool) time.Duration {
	cluster, err := redbud.New(redbud.Config{
		Clients:         2,
		Mode:            redbud.DelayedCommit,
		EarlyVisibility: early,
		TimeScale:       timeScale,
	})
	if err != nil {
		log.Fatal(err)
	}
	defer cluster.Close()

	writer := cluster.Mount(0)

	// A loaded delayed-commit client drains its FIFO commit queue behind
	// these perpetually re-dirtied files — the window in which only the
	// early-visibility path can serve the reader.
	bg := make([]redbud.File, bgFiles)
	for i := range bg {
		f, err := writer.Create(fmt.Sprintf("/bg-%d", i))
		if err != nil {
			log.Fatal(err)
		}
		if _, err := f.WriteAt(make([]byte, 16<<10), 0); err != nil {
			log.Fatal(err)
		}
		bg[i] = f
	}
	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		buf := make([]byte, 4<<10)
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			if _, err := bg[i%len(bg)].WriteAt(buf, 0); err != nil {
				return
			}
			time.Sleep(200 * time.Microsecond)
		}
	}()

	wf, err := writer.Create(path)
	if err != nil {
		log.Fatal(err)
	}
	data := make([]byte, size)
	for i := range data {
		data[i] = byte(i % 251)
	}
	if _, err := wf.WriteAt(data, 0); err != nil {
		log.Fatal(err)
	}
	start := time.Now()

	if early {
		// The write has returned but its commit is queued. The layout
		// view with uncommitted extents shows the published intent.
		lay, err := cluster.FileLayout(path, 0, size, redbud.LayoutWantUncommitted)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("layout right after WriteAt (visible end %d):\n", lay.VisibleEnd)
		for _, e := range lay.Extents {
			state := "committed"
			if e.State == redbud.StateUncommitted {
				state = "uncommitted"
			}
			fmt.Printf("  [%7d,%7d) dev %d vol %7d  %s\n", e.FileOff, e.End(), e.Dev, e.VolOff, state)
		}
	}

	// Poll with a fresh open each probe — the attr fetch plus layout probe
	// a cold conflict reader performs.
	reader := cluster.Mount(1)
	buf := make([]byte, size)
	for {
		rf, err := reader.Open(path)
		if err != nil {
			log.Fatal(err)
		}
		n, err := rf.ReadAt(buf, 0)
		rf.Close()
		if err != nil {
			log.Fatal(err)
		}
		if n == size && buf[0] == data[0] && buf[size-1] == data[size-1] {
			break
		}
		time.Sleep(time.Millisecond)
	}
	elapsed := time.Since(start)

	close(stop)
	<-done
	wf.Close()
	for _, f := range bg {
		f.Close()
	}
	cluster.Drain()

	if early {
		// After the drain the intents have graduated: the committed-only
		// view now covers the file.
		lay, err := cluster.FileLayout(path, 0, size, 0)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("committed layout after drain: %d extent(s)\n\n", len(lay.Extents))
	}
	return elapsed
}

func main() {
	off := timeToVisibility(false)
	on := timeToVisibility(true)
	fmt.Printf("time to visibility on a second mount (wall, TimeScale %g):\n", timeScale)
	fmt.Printf("  committed-only (early visibility off): %v\n", off.Round(time.Millisecond))
	fmt.Printf("  early visibility on:                   %v\n", on.Round(time.Millisecond))
}
