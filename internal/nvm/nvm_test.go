package nvm

import (
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/sim"
)

func cfg() Config { return NVMConfig(140, 400, 2, 8) }

func TestWriteCompletesAfterServiceTime(t *testing.T) {
	e := sim.New()
	d := New(e, cfg())
	var doneAt int64 = -1
	e.Schedule(0, func() { d.WriteEvent(0, sim.Func(func() { doneAt = e.Now() }), 0) })
	e.RunAll()
	if doneAt != 400 {
		t.Fatalf("write completed at %d, want 400", doneAt)
	}
}

func TestReadFasterThanWrite(t *testing.T) {
	e := sim.New()
	d := New(e, cfg())
	var rd, wr int64
	e.Schedule(0, func() {
		d.ReadEvent(0, sim.Func(func() { rd = e.Now() }), 0)
		d.WriteEvent(1, sim.Func(func() { wr = e.Now() }), 0)
	})
	e.RunAll()
	if rd != 140 {
		t.Fatalf("read completed at %d, want 140", rd)
	}
	// Addresses hash onto channels/banks; the write may share a channel
	// (bus cost) or bank (full serialization) with the read, but never more.
	if wr < 400 || wr > 540 {
		t.Fatalf("write completed at %d, want within [400, 540]", wr)
	}
}

func TestSameBankSerializes(t *testing.T) {
	e := sim.New()
	d := New(e, cfg())
	var times []int64
	e.Schedule(0, func() {
		for i := 0; i < 3; i++ {
			d.WriteEvent(0, sim.Func(func() { times = append(times, e.Now()) }), 0)
		}
	})
	e.RunAll()
	want := []int64{400, 800, 1200}
	for i := range want {
		if times[i] != want[i] {
			t.Fatalf("same-bank writes = %v, want %v", times, want)
		}
	}
	if d.MeanWait() == 0 {
		t.Fatal("expected queueing wait on same bank")
	}
}

func TestDifferentBanksParallel(t *testing.T) {
	// Addresses hash onto banks, so scan pairs until one lands on distinct
	// banks: both writes then overlap, paying at most the channel bus.
	found := false
	for b := uint64(1); b < 64 && !found; b++ {
		e := sim.New()
		d := New(e, cfg())
		var times []int64
		bb := b
		e.Schedule(0, func() {
			d.WriteEvent(0, sim.Func(func() { times = append(times, e.Now()) }), 0)
			d.WriteEvent(bb, sim.Func(func() { times = append(times, e.Now()) }), 0)
		})
		e.RunAll()
		if times[0] == 400 && times[1] <= 408 {
			found = true
		}
	}
	if !found {
		t.Fatal("no address pair wrote in parallel; bank-level parallelism broken")
	}
}

func TestPressureBuildsQueues(t *testing.T) {
	e := sim.New()
	d := New(e, cfg())
	const n = 200
	finished := 0
	e.Schedule(0, func() {
		for i := 0; i < n; i++ {
			d.WriteEvent(uint64(i), sim.Func(func() { finished++ }), 0)
		}
	})
	e.RunAll()
	if finished != n {
		t.Fatalf("finished %d of %d", finished, n)
	}
	// 16 banks, 200 writes of 400ns: far beyond parallel capacity.
	if d.MeanWait() < 400 {
		t.Fatalf("mean wait %.0f too small for heavy pressure", d.MeanWait())
	}
	if d.MaxOutstanding() != n {
		t.Fatalf("max outstanding = %d, want %d", d.MaxOutstanding(), n)
	}
	if d.Outstanding() != 0 {
		t.Fatalf("outstanding after drain = %d, want 0", d.Outstanding())
	}
}

func TestCounters(t *testing.T) {
	e := sim.New()
	d := New(e, cfg())
	e.Schedule(0, func() {
		d.WriteEvent(1, nil, 0)
		d.WriteEvent(2, nil, 0)
		d.ReadEvent(3, nil, 0)
	})
	e.RunAll()
	if d.Writes() != 2 || d.Reads() != 1 {
		t.Fatalf("writes/reads = %d/%d, want 2/1", d.Writes(), d.Reads())
	}
	if d.BusyTime() != 2*400+140 {
		t.Fatalf("busy = %d, want %d", d.BusyTime(), 2*400+140)
	}
}

func TestBadGeometryPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for zero banks")
		}
	}()
	New(sim.New(), Config{Channels: 1, Banks: 0, ReadLat: 1, WriteLat: 1})
}

// Property: every scheduled access eventually completes exactly once and the
// completion time is >= issue time + service.
func TestCompletionProperty(t *testing.T) {
	f := func(addrs []uint64) bool {
		if len(addrs) > 64 {
			addrs = addrs[:64]
		}
		e := sim.New()
		d := New(e, cfg())
		completions := 0
		e.Schedule(0, func() {
			for _, a := range addrs {
				d.WriteEvent(a, sim.Func(func() { completions++ }), 0)
			}
		})
		end := e.RunAll()
		if completions != len(addrs) {
			return false
		}
		if len(addrs) > 0 && end < 400 {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestDRAMStyleDevice(t *testing.T) {
	e := sim.New()
	d := New(e, NVMConfig(100, 100, 4, 8))
	var doneAt int64
	e.Schedule(0, func() { d.WriteEvent(0, sim.Func(func() { doneAt = e.Now() }), 0) })
	e.RunAll()
	if doneAt != 100 {
		t.Fatalf("DRAM write at %d, want 100", doneAt)
	}
}

// nopHandler is a completion sink for the allocation guard.
type nopHandler struct{}

func (nopHandler) OnEvent(uint64) {}

// TestValidate exercises every rejection in Config.Validate, one bad field
// at a time.
func TestValidate(t *testing.T) {
	good := cfg()
	if err := good.Validate(); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
	cases := []struct {
		name string
		mut  func(*Config)
		want string
	}{
		{"zero channels", func(c *Config) { c.Channels = 0 }, "Channels"},
		{"negative channels", func(c *Config) { c.Channels = -2 }, "Channels"},
		{"zero banks", func(c *Config) { c.Banks = 0 }, "Banks"},
		{"zero read latency", func(c *Config) { c.ReadLat = 0 }, "ReadLat"},
		{"negative read latency", func(c *Config) { c.ReadLat = -140 }, "ReadLat"},
		{"zero write latency", func(c *Config) { c.WriteLat = 0 }, "WriteLat"},
		{"negative channel bus", func(c *Config) { c.ChannelBus = -8 }, "ChannelBus"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			bad := cfg()
			tc.mut(&bad)
			err := bad.Validate()
			if err == nil {
				t.Fatal("bad geometry accepted")
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not name field %s", err, tc.want)
			}
			defer func() {
				if recover() == nil {
					t.Fatal("New accepted a config Validate rejects")
				}
			}()
			New(sim.New(), bad)
		})
	}
}

// TestDeviceAccessAllocs guards the whole access path — slab record,
// completion event, completion dispatch — at zero steady-state allocations
// per access.
func TestDeviceAccessAllocs(t *testing.T) {
	e := sim.New()
	d := New(e, cfg())
	h := nopHandler{}
	issue := func() {
		for i := uint64(0); i < 16; i++ {
			d.WriteEvent(i*31, h, i)
			d.ReadEvent(i*17, h, i)
		}
		e.RunAll()
	}
	issue() // warm the slab and wheel free lists
	if avg := testing.AllocsPerRun(50, issue); avg != 0 {
		t.Fatalf("device access path allocates %.1f times per burst, want 0", avg)
	}
}
