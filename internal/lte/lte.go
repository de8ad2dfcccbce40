// Package lte builds the paper's private 4G-LTE testbed topology on
// the simnet simulator: a UE behind an srsLTE-style air interface, an
// eNB, a distributed EPC (S-GW, P-GW), MEC servers collocated at the
// edge, and LAN/WAN attachment points behind the P-GW for the
// non-edge DNS deployments of Figure 5.
//
// The air-interface profiles replace the USRP B200mini radios: the
// paper reports the LTE wireless hop at approximately 10 ms one way,
// dominating the MEC L-DNS bar of Figure 5, and projects 5G to shrink
// it drastically; both are captured as delay distributions.
package lte

import (
	"fmt"
	"math/rand"
	"time"

	"github.com/meccdn/meccdn/internal/simnet"
)

// AirProfile models one radio-access generation's air interface.
type AirProfile struct {
	// Name labels the profile in output ("4g-lte", "5g-nr").
	Name string
	// Delay is the one-way air-interface latency distribution.
	Delay simnet.Sampler
	// Loss is the probability a datagram is lost on the air hop.
	Loss float64
}

// LTE4G is calibrated to the paper's testbed: ~10 ms one-way with
// scheduling jitter (srsLTE over USRP B200mini).
func LTE4G() AirProfile {
	return AirProfile{
		Name:  "4g-lte",
		Delay: simnet.Shifted{Base: 9 * time.Millisecond, Jitter: simnet.Normal{Mean: 1 * time.Millisecond, Stddev: 500 * time.Microsecond}},
		Loss:  0.001,
	}
}

// NR5G is the paper's 5G projection: the wireless hop drops to
// low single-digit milliseconds.
func NR5G() AirProfile {
	return AirProfile{
		Name:  "5g-nr",
		Delay: simnet.Shifted{Base: 1200 * time.Microsecond, Jitter: simnet.Normal{Mean: 300 * time.Microsecond, Stddev: 150 * time.Microsecond}},
		Loss:  0.0005,
	}
}

// Config parameterizes a testbed build.
type Config struct {
	// Seed drives every random draw in the simulation.
	Seed int64
	// Air is the radio profile; zero value means 4G LTE.
	Air AirProfile
	// BaseStations is the number of eNBs; 0 means 1. All share the
	// one EPC, like the paper's single-core distributed deployment.
	BaseStations int
	// LANDelay is the P-GW→LAN latency (same building, outside the
	// cluster); zero means 1.5ms.
	LANDelay simnet.Sampler
	// WANDelay is the P-GW→WAN latency (upstream ISP + internet);
	// zero means ~20ms with a heavy tail.
	WANDelay simnet.Sampler
}

const (
	// backhaulDelay is the per-hop eNB→S-GW→P-GW latency
	// (containerized functions on a collocated cluster).
	backhaulDelay = simnet.Constant(500 * time.Microsecond)
	// MECDelay is the P-GW→MEC-service latency (k8s pod network).
	MECDelay = simnet.Constant(150 * time.Microsecond)
)

// Node names used by the testbed. Base stations are "enb0", "enb1"…
const (
	NodeUE  = "ue"
	NodeSGW = "sgw"
	NodePGW = "pgw"
)

// ENB returns the i-th base-station node name.
func ENB(i int) string { return fmt.Sprintf("enb%d", i) }

// Testbed is a built LTE/MEC topology.
type Testbed struct {
	// Net is the underlying simulator.
	Net *simnet.Network
	// Cfg echoes the build configuration with defaults applied.
	Cfg Config

	attachedENB int
}

// New builds the testbed: ue—enb0—sgw—pgw plus any extra eNBs, with
// the UE attached to enb0.
func New(cfg Config) *Testbed {
	if cfg.Air.Name == "" {
		cfg.Air = LTE4G()
	}
	if cfg.BaseStations <= 0 {
		cfg.BaseStations = 1
	}
	if cfg.LANDelay == nil {
		cfg.LANDelay = simnet.Shifted{Base: 1200 * time.Microsecond, Jitter: simnet.Uniform{Max: 600 * time.Microsecond}}
	}
	if cfg.WANDelay == nil {
		cfg.WANDelay = simnet.LogNormal{Median: 18 * time.Millisecond, Sigma: 0.35, Max: 250 * time.Millisecond}
	}
	n := simnet.New(cfg.Seed)
	n.AddNode(NodeUE)
	n.AddNode(NodeSGW)
	n.AddNode(NodePGW)
	n.AddLink(NodeSGW, NodePGW, backhaulDelay, 0)
	tb := &Testbed{Net: n, Cfg: cfg}
	for i := 0; i < cfg.BaseStations; i++ {
		n.AddNode(ENB(i))
		n.AddLink(ENB(i), NodeSGW, backhaulDelay, 0)
	}
	tb.AttachUE(0)
	return tb
}

// AttachUE connects the UE's radio bearer to base station i,
// detaching it from any previous one.
func (tb *Testbed) AttachUE(i int) {
	if tb.Net.HasLink(NodeUE, ENB(tb.attachedENB)) {
		tb.Net.RemoveLink(NodeUE, ENB(tb.attachedENB))
	}
	tb.Net.AddDirectedLink(NodeUE, ENB(i), tb.Cfg.Air.Delay, tb.Cfg.Air.Loss)
	tb.Net.AddDirectedLink(ENB(i), NodeUE, tb.Cfg.Air.Delay, tb.Cfg.Air.Loss)
	tb.attachedENB = i
}

// AttachedENB returns the index of the UE's current base station.
func (tb *Testbed) AttachedENB() int { return tb.attachedENB }

// AddMEC creates a MEC service node collocated with the edge cluster,
// reachable from the P-GW over the pod network (local breakout).
func (tb *Testbed) AddMEC(name string) *simnet.Node {
	node := tb.Net.AddNode(name)
	tb.Net.AddLink(NodePGW, name, MECDelay, 0)
	return node
}

// AddLAN creates a node on the same LAN as the edge site but outside
// the MEC cluster (the paper's "LAN C-DNS" and "LAN L-DNS" cases).
func (tb *Testbed) AddLAN(name string) *simnet.Node {
	node := tb.Net.AddNode(name)
	tb.Net.AddLink(NodePGW, name, tb.Cfg.LANDelay, 0)
	return node
}

// AddWAN creates a node across the wide-area internet (cloud DNS,
// far-tier CDN), optionally scaling the WAN delay (Cloudflare's
// observed path in the paper is far slower than Google's).
func (tb *Testbed) AddWAN(name string, delayScale float64) *simnet.Node {
	node := tb.Net.AddNode(name)
	delay := tb.Cfg.WANDelay
	if delayScale > 0 && delayScale != 1 {
		delay = scaledSampler{base: delay, scale: delayScale}
	}
	tb.Net.AddLink(NodePGW, name, delay, 0)
	return node
}

// scaledSampler multiplies another sampler's draws.
type scaledSampler struct {
	base  simnet.Sampler
	scale float64
}

// Sample implements simnet.Sampler.
func (s scaledSampler) Sample(rng *rand.Rand) time.Duration {
	return time.Duration(float64(s.base.Sample(rng)) * s.scale)
}
