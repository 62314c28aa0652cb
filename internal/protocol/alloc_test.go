package protocol

import (
	"testing"

	"repro/internal/core"
	"repro/internal/params"
)

// Round-level allocation guards: one protocol round, driven to quiescence on
// a 5-server cluster, after a warm-up that fills key state, slabs, pools and
// the event wheel. A strong write moves 12 messages (4 INV + 4 ACK + 4 VAL)
// and persists on five replicas; every step of it used to cost heap objects.
//
// Ceiling history, allocations per Linearizable write round: 90 at the seed
// (a boxed ~80-byte payload per message plus two capturing closures per
// message in simnet), 66 with simnet's pooled delivery records, 60 with
// payloads carried by pointer out of a chunked slab, 29 with typed
// closure-free events end to end (message dispatch, worker-pool and NVM
// completions through recycled record slabs), 8 once payload boxes recycled
// through a refcounted free stack and write-back completions rode a per-key
// stamp, and 0 since PR 18 made every continuation a cont record (cont.go),
// every client request a recycled clientOp and every per-key collection a
// token into a replica-level slab. Until then the guards hammered one
// pre-warmed key and read 8-14 while a first touch of a key cost 13-33 (its
// transC map, persistCbs and consWait slices); a cell touches most of its
// keys once, so the guards now also rotate: every measured round uses a key
// no earlier round touched, held to the same ceiling as the warm key.
//
// What is left is the causal history: a Causal write clones its vector clock
// (causalVis.causalHistory), one object. Everything else — closures, records,
// per-key state — is recycled, so a ceiling of zero means any per-round
// closure or first-touch allocation fails immediately.

// roundDriver issues one kind of protocol round on a test cluster, with
// every callback it hands the replicas bound once, so the measured rounds
// allocate nothing of the test's own.
type roundDriver struct {
	tc   *testCluster
	key  uint64
	cold bool // rotate: each round uses a key no earlier round touched
	txn  uint64

	issue func() // the round's first request, scheduled at time 0
}

func newRoundDriver(m core.Model, cold bool, issue func(d *roundDriver) func()) *roundDriver {
	d := &roundDriver{cold: cold, key: 7}
	d.tc = newTestCluster(m, 5, func(p *params.Params) { p.Keys = 1024 })
	d.issue = issue(d)
	return d
}

// round runs one round to quiescence.
func (d *roundDriver) round() {
	if d.cold {
		d.key++
	}
	d.tc.eng.Schedule(0, d.issue)
	d.tc.run()
}

// allocs warms the driver and returns the average allocations of a round.
func (d *roundDriver) allocs() float64 {
	for i := 0; i < 64; i++ {
		d.round()
	}
	return testing.AllocsPerRun(200, d.round)
}

func writeRound(d *roundDriver) func() {
	done := Func(func(uint64) {})
	return func() { d.tc.reps[0].ClientWrite(d.key, 0, 0, done, 0) }
}

// readRound reads at a follower the key the previous round left behind (a
// fresh key under cold, so the read is the key's first touch there).
func readRound(d *roundDriver) func() {
	done := Func(func(uint64) {})
	return func() { d.tc.reps[1].ClientRead(d.key, 0, done, 0) }
}

// txnRound runs INITX, one write, one read and ENDX.
func txnRound(d *roundDriver) func() {
	r := d.tc.reps[0]
	onEnd := Func(func(uint64) {})
	onRead := Func(func(uint64) { r.ClientEndTxn(d.txn, onEnd, 0) })
	onWrite := Func(func(uint64) { r.ClientRead(d.key, d.txn, onRead, 0) })
	onInit := Func(func(id uint64) {
		if id != 0 {
			d.txn = id
			r.ClientWrite(d.key, 0, id, onWrite, 0)
		}
	})
	return func() { r.ClientInitTxn(onInit, 0) }
}

// checkRounds measures issue on m with a warm key and with rotating keys.
func checkRounds(t *testing.T, m core.Model, what string, issue func(*roundDriver) func(), ceiling float64) {
	t.Helper()
	for _, cold := range []bool{false, true} {
		keys := "warm key"
		if cold {
			keys = "rotating keys"
		}
		if got := newRoundDriver(m, cold, issue).allocs(); got > ceiling {
			t.Errorf("%s %s round, %s: allocated %.0f, want <= %.0f (a per-round closure, record or first-touch per-key allocation came back?)",
				m, what, keys, got, ceiling)
		}
	}
}

// TestWriteHotPathAllocs pins the strong write round.
func TestWriteHotPathAllocs(t *testing.T) {
	checkRounds(t, mdl(core.Linearizable, core.EventualP), "write", writeRound, 0)
}

// TestWeakWriteHotPathAllocs pins the UPD-based write rounds; Causal carries
// one cauhist clone per write.
func TestWeakWriteHotPathAllocs(t *testing.T) {
	cases := []struct {
		name    string
		model   core.Model
		ceiling float64
	}{
		{"causal-synchronous", mdl(core.Causal, core.Synchronous), 1},
		{"causal-eventual", mdl(core.Causal, core.EventualP), 1},
		{"eventual-synchronous", mdl(core.Eventual, core.Synchronous), 0},
		{"eventual-eventual", mdl(core.Eventual, core.EventualP), 0},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			checkRounds(t, c.model, "write", writeRound, c.ceiling)
		})
	}
}

// TestRoundAllocsAcrossBindings holds the write and read rounds of all five
// visibility classes, under the lazy, the ack-gated and the launch-gated
// persist placement, to the same ceilings — and the transaction round where
// there are transactions.
func TestRoundAllocsAcrossBindings(t *testing.T) {
	for _, c := range []core.Consistency{core.Linearizable, core.ReadEnforcedC, core.Transactional, core.Causal, core.Eventual} {
		for _, p := range []core.Persistency{core.EventualP, core.Synchronous, core.Strict} {
			m := mdl(c, p)
			write := 0.0
			if c == core.Causal {
				write = 1 // the cauhist clone
			}
			checkRounds(t, m, "write", writeRound, write)
			checkRounds(t, m, "read", readRound, 0)
			if c == core.Transactional {
				checkRounds(t, m, "transaction", txnRound, 0)
			}
		}
	}
}
