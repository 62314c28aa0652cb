// Package sim provides a deterministic discrete-event simulation engine.
//
// The engine maintains a pending-event set keyed by (time, key).
// Scheduling an event never executes it immediately; Run drains the set in
// timestamp order, advancing the simulated clock. Ties are broken by the key:
// cross-node arrivals (AtArrival) carry the sender-computed (source, source
// sequence) and run first, locally scheduled events carry the insertion
// sequence and run after them — so two runs with the same inputs produce
// identical schedules, which makes every experiment in this repository
// reproducible. Both cluster wirings feed arrivals through AtArrival: the
// sequential one at send time, the LP one at epoch barriers (LPGroup); the
// key, not the call order, fixes their dispatch order.
//
// All times are simulated nanoseconds. The engine is single-goroutine by
// design: protocol handlers must not block, they schedule continuations.
//
// Event dispatch is the hottest path in every experiment, so the engine
// offers two things beyond a plain priority queue:
//
//   - A timing wheel as the pending-event set (O(1) insert and extract,
//     tuned to the simulator's short event horizons; local events
//     tail-append without a key compare and dispatch reads the head node in
//     place), with the 4-ary heap as its overflow level for far events and
//     as its oracle (TestSchedulerDifferentialRandomized).
//   - One event form: a pre-bound Handler plus a uint64 argument
//     (ScheduleEvent/AtEvent), so hot event producers (simnet deliveries,
//     NVM completions, worker-pool completions) schedule without allocating
//     a closure per event. Schedule and At take a plain func through the
//     Func adapter.
package sim

// Handler consumes a typed event. Implementations are long-lived simulation
// components (a network delivery record, an NVM device, a worker pool); the
// argument is an implementation-defined token, typically an index into the
// handler's own pooled state. Scheduling a Handler allocates nothing.
type Handler interface {
	OnEvent(arg uint64)
}

// Func adapts a plain function to Handler; the argument is ignored. A func
// value is pointer-shaped, so boxing one into the interface allocates nothing.
type Func func()

// OnEvent calls f.
func (f Func) OnEvent(uint64) { f() }

// Call is a completion parked across an event, H.OnEvent(Arg), such as a
// worker's or a device's. H may be nil.
type Call struct {
	H   Handler
	Arg uint64
}

// Run calls H.OnEvent(Arg) unless H is nil.
func (c Call) Run() {
	if c.H != nil {
		c.H.OnEvent(c.Arg)
	}
}

// event is one scheduled action, a (Handler, arg) pair. seq is the tie-break
// key within a timestamp: localBit | insertion sequence for locally scheduled
// events, src<<48 | sender sequence (top bit clear) for cross-node arrivals.
type event struct {
	at  int64
	seq uint64
	h   Handler
	arg uint64
}

// localBit marks a locally scheduled event's key. Arrival keys leave it
// clear, so at one timestamp every arrival sorts before every local event,
// and a newly pushed local key is the largest yet (the wheel's tail append).
const localBit = uint64(1) << 63

// MaxArrivalSources bounds AtArrival's src: the key gives the source the 15
// bits between the class bit and the 48-bit sender sequence.
const MaxArrivalSources = 1 << 15

// before reports dispatch ordering: earlier time first, then the key —
// arrivals in (src, seq) order, then locals FIFO.
func (e *event) before(o *event) bool {
	if e.at != o.at {
		return e.at < o.at
	}
	return e.seq < o.seq
}

// EngineStats reports scheduler-level counters for one engine, for the
// -eventstats harness output and perf investigations.
type EngineStats struct {
	Processed  uint64 // events executed
	MaxPending int    // high-water mark of scheduled-but-unexecuted local events
	Wheel      uint64 // events scheduled directly into the wheel window
	Overflow   uint64 // events that landed in the overflow level first
	Turns      uint64 // wheel turns (overflow re-bucketing passes)
	Ingress    uint64 // cross-node arrivals dispatched (AtArrival)
}

// Merge accumulates other into s (summing counters, taking the max pending
// high-water mark), for aggregating per-LP engines into one run-level view.
func (s *EngineStats) Merge(other EngineStats) {
	s.Processed += other.Processed
	s.Wheel += other.Wheel
	s.Overflow += other.Overflow
	s.Turns += other.Turns
	s.Ingress += other.Ingress
	if other.MaxPending > s.MaxPending {
		s.MaxPending = other.MaxPending
	}
}

// Engine is a discrete-event simulator clock and scheduler.
// The zero value is ready to use at time 0.
type Engine struct {
	now        int64
	seq        uint64
	processed  uint64
	arrived    uint64 // AtArrival events dispatched
	stopped    bool
	maxPending int
	arrivals   int // AtArrival events pending in the scheduler

	// schedLB is a lower bound on the scheduler's head time: no scheduled
	// event is earlier than it. Pops and TryAdvance's passing probes tighten
	// it (dispatch order is monotone; a probe reveals the exact head), pushes
	// relax it. TryAdvance skips the scheduler probe when the bound already
	// proves the gap.
	schedLB int64

	// runUntil is the time bound of the Run in progress (maxTime inside
	// RunAll/Step, 0 before the first Run). TryAdvance refuses to move the
	// clock to it or past it, so clock jumps never cross a phase boundary
	// (measurement flips, LP epoch barriers) that the bound encodes.
	runUntil int64

	wheel timingWheel

	// calls parks the completions of this engine's service centers (worker
	// pools, NVM devices) across their service events: one recycler for the
	// logical process, however many nodes it runs.
	calls Slab[Call]
}

// New returns an Engine starting at simulated time 0.
func New() *Engine { return &Engine{} }

// Now returns the current simulated time in nanoseconds.
func (e *Engine) Now() int64 { return e.now }

// Processed returns the number of events executed so far.
func (e *Engine) Processed() uint64 { return e.processed }

// Pending returns the number of scheduled-but-unexecuted events, arrivals
// included.
func (e *Engine) Pending() int { return e.wheel.len() }

// Stats returns the engine's scheduler counters.
func (e *Engine) Stats() EngineStats {
	return EngineStats{
		Processed:  e.processed,
		MaxPending: e.maxPending,
		Wheel:      e.wheel.wheelEvents,
		Overflow:   e.wheel.overflowEvents,
		Turns:      e.wheel.turns,
		Ingress:    e.arrived,
	}
}

// Park parks c across an event and returns the token that Unpark takes. A
// pool or device schedules itself with the token as the event argument and
// unparks the completion when the event fires, so the completion needs no
// closure and no recycler of its own.
func (e *Engine) Park(c Call) int32 { return e.calls.Put(c) }

// Unpark frees the token Park returned and returns the parked call.
func (e *Engine) Unpark(tok int32) Call { return e.calls.Take(tok) }

// Parked returns how many call slots the engine holds, parked or free.
func (e *Engine) Parked() int { return e.calls.Slots() }

// Reserve grows the pending-event storage so at least n events can be in
// flight without reallocation. Without it the storage grows with the pending
// set a run reaches, a few amortized reallocations per run; allocation-count
// tests and kernels call it so their measured loop pays none.
func (e *Engine) Reserve(n int) { e.wheel.reserve(n) }

// Schedule runs fn after delay nanoseconds of simulated time.
// A negative delay is treated as zero (run at the current time, after any
// events already scheduled for it).
func (e *Engine) Schedule(delay int64, fn func()) { e.AtEvent(e.now+delay, Func(fn), 0) }

// At runs fn at absolute simulated time t. Times in the past are clamped to
// the present.
func (e *Engine) At(t int64, fn func()) { e.AtEvent(t, Func(fn), 0) }

// ScheduleEvent runs h.OnEvent(arg) after delay nanoseconds of simulated
// time — the closure-free flavor of Schedule for pre-bound hot handlers. A
// negative delay lands in AtEvent's past-time clamp.
func (e *Engine) ScheduleEvent(delay int64, h Handler, arg uint64) { e.AtEvent(e.now+delay, h, arg) }

// AtEvent runs h.OnEvent(arg) at absolute simulated time t — the
// closure-free flavor of At. Times in the past are clamped to the present.
func (e *Engine) AtEvent(t int64, h Handler, arg uint64) {
	if t < e.now {
		t = e.now
	}
	e.seq++
	e.push(&event{at: t, seq: localBit | e.seq, h: h, arg: arg})
}

// AtArrival runs h.OnEvent(arg) at absolute simulated time t as a cross-node
// arrival keyed by values the sender computed: at equal timestamps arrivals
// dispatch in (src, seq) order, ahead of every locally scheduled event,
// whatever order they were scheduled in. So arrivals scheduled at send time
// (sequential wiring) and the same arrivals scheduled in bulk at an epoch
// barrier (LP wiring) dispatch identically (TestBarrierArrivalsMatchSendTime).
// src must be in [0, MaxArrivalSources) and seq below 2^48; t must not
// precede the clock — a sender cannot compute an arrival in its own past, so
// either violation is a wiring bug and panics.
func (e *Engine) AtArrival(t int64, src int32, seq uint64, h Handler, arg uint64) {
	if t < e.now {
		panic("sim: arrival scheduled in the past")
	}
	if uint32(src) >= MaxArrivalSources {
		panic("sim: arrival source out of key range")
	}
	e.arrivals++
	e.schedule(&event{at: t, seq: packKey(src, seq), h: h, arg: arg})
}

// push schedules a local event and tracks the pending high-water mark,
// which counts local events only: arrivals share the scheduler but are the
// network's backlog, not the node's.
func (e *Engine) push(ev *event) {
	e.schedule(ev)
	if pending := e.wheel.len() - e.arrivals; pending > e.maxPending {
		e.maxPending = pending
	}
}

// schedule hands the event to the wheel.
func (e *Engine) schedule(ev *event) {
	if ev.at < e.schedLB {
		e.schedLB = ev.at
	}
	e.wheel.push(ev, e.now)
}

const maxTime = int64(^uint64(0) >> 1)

// TryAdvance reports whether the engine can prove that nothing is pending —
// no scheduled event, local or arrival — at or before time t, with t still
// strictly inside the current Run's bound; when so it advances
// the clock to t and returns true. The caller may then perform work "at t" directly,
// exactly as a scheduled event at t would have, without paying for the
// event: the simnet fast path uses this to collapse an uncontended
// arrive→deliver pair into one dispatch. On false the clock is untouched
// and the caller must fall back to scheduling normally.
//
// The strict runUntil bound keeps the jump inside the dispatch window the
// caller is known to be draining: a Run(until) boundary is where phase
// flips (measurement on/off) and LP epoch barriers (new cross-LP arrivals
// becoming visible) happen, so work at or past it must go through a real
// event.
func (e *Engine) TryAdvance(t int64) bool {
	if e.stopped || t >= e.runUntil || t < e.now {
		// A Stop() leaves pending work queued for a later Run; jumping the
		// clock past it here would run work the stopped run must not.
		return false
	}
	if t >= e.schedLB {
		// The lower bound does not prove the gap; probe the real head.
		head := e.wheel.headAt()
		if head <= t {
			return false
		}
		e.schedLB = head
	}
	e.now = t
	return true
}

// dispatchNext executes the scheduler head if it is at or before until and
// reports whether anything ran. The head comes out of the wheel as scalars,
// not as an event copy.
func (e *Engine) dispatchNext(until int64) bool {
	at, seq, h, arg, ok := e.wheel.popIfAtMost(until)
	if !ok {
		return false
	}
	e.schedLB = at
	e.now = at
	e.processed++
	if seq&localBit == 0 {
		e.arrivals--
		e.arrived++
	}
	h.OnEvent(arg)
	return true
}

// Run executes events in timestamp order until the queue is empty, the
// simulated clock passes until, or Stop is called. It returns the simulated
// time at which it stopped. Events scheduled exactly at until are executed.
func (e *Engine) Run(until int64) int64 {
	e.stopped = false
	e.runUntil = until
	for !e.stopped && e.dispatchNext(until) {
	}
	if e.now < until && !e.stopped {
		e.now = until
	}
	return e.now
}

// RunAll executes every pending event (including events scheduled by events)
// with no time bound, returning the final simulated time. Use only in tests
// and workloads known to quiesce.
func (e *Engine) RunAll() int64 {
	e.stopped = false
	e.runUntil = maxTime
	for !e.stopped && e.dispatchNext(maxTime) {
	}
	return e.now
}

// Step executes exactly one event if any is pending and reports whether it
// did.
func (e *Engine) Step() bool {
	e.runUntil = maxTime
	return e.dispatchNext(maxTime)
}

// Stop makes the current Run/RunAll call return after the event in progress.
func (e *Engine) Stop() { e.stopped = true }
