package core

import (
	"sync/atomic"
	"time"
)

const (
	// congestionThreshold is the network queueing delay regarded as
	// "congested".
	congestionThreshold = 200 * time.Microsecond
	// loadThreshold is the MDS load byte (0-255) regarded as "busy".
	loadThreshold = 128
)

// CompoundConfig configures the adaptive compound-degree controller.
type CompoundConfig struct {
	// Fixed pins the degree (Figure 7 sweeps 1, 3, 6); 0 means adaptive.
	Fixed int
	// Max bounds the adaptive degree. The paper finds degrees beyond
	// three add little for I/O-bound workloads; 6 is a safe ceiling.
	Max int
	// NetCongestion samples the smoothed queueing delay on the path to
	// the MDS (netsim.Network.CongestionWait).
	NetCongestion func() time.Duration
	// ServerLoad samples the MDS load byte piggybacked on RPC replies.
	ServerLoad func() uint8
}

// Compound adjusts the number of commit requests packed into one RPC
// according to the statuses of the network and the metadata server: degree
// rises while either is overloaded to cut per-message overheads, and decays
// otherwise to keep commit latency low (§IV-B).
type Compound struct {
	cfg    CompoundConfig
	degree atomic.Int32
}

// NewCompound returns a controller starting at degree 1.
func NewCompound(cfg CompoundConfig) *Compound {
	if cfg.Max < 1 {
		cfg.Max = 6
	}
	c := &Compound{cfg: cfg}
	if cfg.Fixed > 0 {
		c.degree.Store(int32(cfg.Fixed))
	} else {
		c.degree.Store(1)
	}
	return c
}

// Degree returns the current compound degree.
func (c *Compound) Degree() int { return int(c.degree.Load()) }

// Tick re-evaluates the degree. Call it periodically (the commit daemons do,
// before each batch).
func (c *Compound) Tick() {
	if c.cfg.Fixed > 0 {
		return
	}
	congested := false
	if c.cfg.NetCongestion != nil && c.cfg.NetCongestion() > congestionThreshold {
		congested = true
	}
	if c.cfg.ServerLoad != nil && c.cfg.ServerLoad() > loadThreshold {
		congested = true
	}
	d := int(c.degree.Load())
	if congested {
		if d < c.cfg.Max {
			c.degree.Store(int32(d + 1))
		}
	} else if d > 1 {
		c.degree.Store(int32(d - 1))
	}
}
