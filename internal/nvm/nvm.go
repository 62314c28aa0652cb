// Package nvm models a node's non-volatile memory device (and, with DRAM
// timings, its DRAM) as a set of channels x banks with per-bank occupancy.
//
// Each persist or read occupies one bank for a fixed service time; requests
// to a busy bank queue behind it. This produces the "NVM pressure" effect
// central to the paper's evaluation (Section 8.1.1): persistency models that
// allow many outstanding persists build bank queues, which in turn delay the
// reads (or read-enforced persist barriers) that must wait on them.
package nvm

import (
	"fmt"

	"repro/internal/sim"
)

// Config describes a device's geometry and timing.
type Config struct {
	Channels   int
	Banks      int   // per channel
	ReadLat    int64 // ns of bank occupancy per read
	WriteLat   int64 // ns of bank occupancy per write
	ChannelBus int64 // ns of channel occupancy per transfer (bus serialization)
}

// Validate reports the first configuration error, if any.
func (cfg Config) Validate() error {
	switch {
	case cfg.Channels < 1:
		return fmt.Errorf("nvm: Channels must be >= 1, got %d", cfg.Channels)
	case cfg.Banks < 1:
		return fmt.Errorf("nvm: Banks must be >= 1, got %d", cfg.Banks)
	case cfg.ReadLat <= 0:
		return fmt.Errorf("nvm: ReadLat must be positive ns, got %d", cfg.ReadLat)
	case cfg.WriteLat <= 0:
		return fmt.Errorf("nvm: WriteLat must be positive ns, got %d", cfg.WriteLat)
	case cfg.ChannelBus < 0:
		return fmt.Errorf("nvm: ChannelBus must be >= 0 ns, got %d", cfg.ChannelBus)
	}
	return nil
}

// NVMConfig returns the paper's NVM geometry for the given latencies.
func NVMConfig(readLat, writeLat int64, channels, banks int) Config {
	return Config{
		Channels:   channels,
		Banks:      banks,
		ReadLat:    readLat,
		WriteLat:   writeLat,
		ChannelBus: 8, // 64B line at 1 GHz DDR x 64-bit bus ~ 8 ns
	}
}

// Device is one memory device instance attached to a node.
type Device struct {
	eng    *sim.Engine
	cfg    Config
	bank   [][]int64 // next-free time per [channel][bank]
	chFree []int64   // next-free time per channel bus

	// In-flight completion handlers, parked so each access schedules a typed
	// (closure-free) completion event.
	acc sim.Slab[sim.Call]

	reads     uint64
	writes    uint64
	sumWait   int64
	maxWait   int64
	busy      int64
	maxQueued int
	queued    int
}

// New creates a device on the given engine. The configuration must pass
// Validate.
func New(eng *sim.Engine, cfg Config) *Device {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	d := &Device{eng: eng, cfg: cfg, chFree: make([]int64, cfg.Channels)}
	d.bank = make([][]int64, cfg.Channels)
	for i := range d.bank {
		d.bank[i] = make([]int64, cfg.Banks)
	}
	return d
}

// placement maps an address onto a channel and bank. Addresses are hashed
// first, modeling physical-address interleaving: adjacent or popular keys
// should not pile onto one bank deterministically.
func (d *Device) placement(addr uint64) (int, int) {
	h := addr
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	ch := int(h % uint64(d.cfg.Channels))
	bk := int((h / uint64(d.cfg.Channels)) % uint64(d.cfg.Banks))
	return ch, bk
}

// access schedules one operation of the given service time against addr's
// bank and returns the completion time.
func (d *Device) access(addr uint64, service int64, done sim.Call) int64 {
	ch, bk := d.placement(addr)
	now := d.eng.Now()
	start := d.bank[ch][bk]
	if d.chFree[ch] > start {
		start = d.chFree[ch]
	}
	if start < now {
		start = now
	}
	wait := start - now
	d.sumWait += wait
	if wait > d.maxWait {
		d.maxWait = wait
	}
	end := start + service
	d.bank[ch][bk] = end
	d.chFree[ch] = start + d.cfg.ChannelBus
	d.busy += service
	d.queued++
	if d.queued > d.maxQueued {
		d.maxQueued = d.queued
	}
	d.eng.AtEvent(end, d, uint64(d.acc.Put(done)))
	return end
}

// OnEvent completes the access parked at token arg: it frees the token and
// runs the completion. It implements sim.Handler so completions
// schedule without allocating a closure.
func (d *Device) OnEvent(arg uint64) {
	d.queued--
	d.acc.Take(int32(arg)).Run()
}

// WriteEvent persists one value identified by addr; h.OnEvent(arg) fires
// when the write is durable (h may be nil). It returns the simulated
// completion time.
func (d *Device) WriteEvent(addr uint64, h sim.Handler, arg uint64) int64 {
	d.writes++
	return d.access(addr, d.cfg.WriteLat, sim.Call{H: h, Arg: arg})
}

// ReadEvent fetches one value; h.OnEvent(arg) fires at completion (h may be
// nil). It returns the simulated completion time.
func (d *Device) ReadEvent(addr uint64, h sim.Handler, arg uint64) int64 {
	d.reads++
	return d.access(addr, d.cfg.ReadLat, sim.Call{H: h, Arg: arg})
}

// Writes returns the number of writes issued.
func (d *Device) Writes() uint64 { return d.writes }

// Reads returns the number of reads issued.
func (d *Device) Reads() uint64 { return d.reads }

// MeanWait returns the average queueing delay per access in ns — the
// device-pressure metric reported by the harness.
func (d *Device) MeanWait() float64 {
	n := d.reads + d.writes
	if n == 0 {
		return 0
	}
	return float64(d.sumWait) / float64(n)
}

// MaxWait returns the worst queueing delay seen.
func (d *Device) MaxWait() int64 { return d.maxWait }

// BusyTime returns total bank occupancy accumulated.
func (d *Device) BusyTime() int64 { return d.busy }

// MaxOutstanding returns the high-water mark of in-flight accesses.
func (d *Device) MaxOutstanding() int { return d.maxQueued }

// Outstanding returns the number of in-flight accesses right now.
func (d *Device) Outstanding() int { return d.queued }

// Completions returns the number of accesses completed so far, one engine
// event each.
func (d *Device) Completions() uint64 { return d.reads + d.writes - uint64(d.queued) }
