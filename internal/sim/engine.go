// Package sim provides a deterministic discrete-event simulation engine.
//
// The engine maintains a pending-event set keyed by (time, key).
// Scheduling an event never executes it immediately; Run drains the set in
// timestamp order, advancing the simulated clock. Ties are broken by the key:
// cross-node arrivals (AtArrival) carry the sender-computed (source, source
// sequence) and run first, locally scheduled events carry the insertion
// sequence and run after them — so two runs with the same inputs produce
// identical schedules, which makes every experiment in this repository
// reproducible.
//
// All times are simulated nanoseconds. The engine is single-goroutine by
// design: protocol handlers must not block, they schedule continuations.
//
// Event dispatch is the hottest path in every experiment, so the engine
// offers two things beyond a plain priority queue:
//
//   - Two interchangeable schedulers (see Scheduler): a hierarchical timing
//     wheel (the default — O(1) amortized insert/extract, tuned to the
//     simulator's short event horizons) and the original 4-ary heap, kept
//     for differential testing. Both dispatch in exactly the same
//     (time, seq) order, so they are bit-for-bit equivalent.
//   - Typed events (ScheduleEvent/AtEvent): a pre-bound Handler plus a
//     uint64 argument, so hot event producers (simnet deliveries, NVM
//     completions, worker-pool completions) schedule without allocating a
//     closure per event.
package sim

// Handler consumes a typed event. Implementations are long-lived simulation
// components (a network delivery record, an NVM device, a worker pool); the
// argument is an implementation-defined token, typically an index into the
// handler's own pooled state. Scheduling a Handler allocates nothing.
type Handler interface {
	OnEvent(arg uint64)
}

// event is one scheduled action: either a closure or a (Handler, arg) pair.
// seq is the tie-break key within a timestamp: localBit | insertion sequence
// for locally scheduled events, src<<48 | sender sequence (top bit clear) for
// cross-node arrivals.
type event struct {
	at  int64
	seq uint64
	fn  func() // nil for typed events
	h   Handler
	arg uint64
}

// run executes the event's action.
func (e *event) run() {
	if e.fn != nil {
		e.fn()
		return
	}
	e.h.OnEvent(e.arg)
}

// localBit marks a locally scheduled event's key. Arrival keys leave it
// clear, so at one timestamp every arrival sorts before every local event.
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

// ChainResolver is the deferred-continuation hook behind the NVM completion
// train. A component that wants to run work "at time t" without scheduling
// an event — but cannot jump the clock because a handler is still executing
// at the current time — registers itself with SetChain during the dispatch;
// the engine calls OnChain once the dispatch completes, when a clock jump is
// safe again.
// OnChain re-proves the gap itself (via TryAdvance) and falls back to
// scheduling normally when the proof fails, so deferral never changes a
// simulated outcome.
type ChainResolver interface {
	OnChain()
}

// chainEntry is one registered deferred continuation plus the time its
// parked work would run at. The time makes the parked work visible to gap
// proofs (TryAdvance refuses to jump at or past it) and orders resolution:
// entries resolve in ascending (at, registration order), mirroring the
// dispatch order the parked work would have had as real events.
type chainEntry struct {
	c  ChainResolver
	at int64
}

// Scheduler selects the engine's pending-event structure.
type Scheduler int

const (
	// SchedulerWheel is the hierarchical timing wheel (default): O(1)
	// amortized scheduling with a fine-grained near-future window and a
	// heap-backed overflow level for far events.
	SchedulerWheel Scheduler = iota
	// SchedulerHeap is the 4-ary min-heap, kept for differential testing
	// against the wheel (TestSchedulerDifferentialRandomized).
	SchedulerHeap
)

// EngineStats reports scheduler-level counters for one engine, for the
// -eventstats harness output and perf investigations.
type EngineStats struct {
	Processed  uint64 // events executed
	MaxPending int    // high-water mark of scheduled-but-unexecuted local events
	Wheel      uint64 // events scheduled directly into the wheel window
	Overflow   uint64 // events that landed in the overflow level first
	Turns      uint64 // wheel turns (overflow re-bucketing passes)
	Ingress    uint64 // cross-node arrivals dispatched (AtArrival or a bound Ingress)
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
// The zero value is ready to use at time 0 with the timing-wheel scheduler.
type Engine struct {
	now        int64
	seq        uint64
	processed  uint64
	ingressed  uint64
	stopped    bool
	maxPending int
	arrivals   int // AtArrival events pending in the scheduler

	// schedLB is a lower bound on the scheduler's head time: no scheduled
	// event is earlier than it. Pops tighten it (dispatch order is
	// monotone; a failed probe reveals the exact head), pushes relax it.
	// TryAdvance skips the scheduler probe when the bound already proves the
	// gap, and dispatchNext pops a bound Ingress's arrival without probing
	// when the bound proves the arrival wins.
	schedLB int64

	// runUntil is the time bound of the Run in progress (maxTime inside
	// RunAll/Step, 0 before the first Run). TryAdvance refuses to move the
	// clock to it or past it, so clock jumps never cross a phase boundary
	// (measurement flips, LP epoch barriers) that the bound encodes.
	runUntil int64

	// ing, when bound (LP wiring), feeds arrivals delivered at epoch
	// barriers into the dispatch loop; at equal timestamps they run before
	// scheduled events (see Ingress). The sequential wiring schedules
	// arrivals with AtArrival instead and leaves it nil.
	ing *Ingress

	// chain holds continuations deferred by the event in progress, resolved
	// after it returns (see ChainResolver). The queue is empty outside
	// dispatchOne's drain; it holds more than one entry only when independent
	// components defer in the same dispatch (two devices' completion trains,
	// say).
	chain []chainEntry

	useHeap bool
	heap    eventHeap
	wheel   timingWheel
}

// New returns an Engine starting at simulated time 0, using the
// timing-wheel scheduler.
func New() *Engine { return &Engine{} }

// NewWithScheduler returns an Engine using the given scheduler. Both
// schedulers dispatch in identical (time, seq) order; SchedulerHeap exists
// so differential tests can prove that.
func NewWithScheduler(s Scheduler) *Engine {
	return &Engine{useHeap: s == SchedulerHeap}
}

// Now returns the current simulated time in nanoseconds.
func (e *Engine) Now() int64 { return e.now }

// Processed returns the number of events executed so far.
func (e *Engine) Processed() uint64 { return e.processed }

// Pending returns the number of scheduled-but-unexecuted events, including
// queued ingress arrivals.
func (e *Engine) Pending() int {
	n := 0
	if e.ing != nil {
		n = e.ing.Len()
	}
	return n + e.schedLen()
}

// BindIngress attaches an arrival queue to the engine. The dispatch loops
// interleave its entries with scheduled events in time order, with the
// queue's arrivals winning ties — the same canonical order AtArrival's keys
// give the sequential engine. An engine takes its arrivals one way or the
// other, not both.
func (e *Engine) BindIngress(ing *Ingress) { e.ing = ing }

// Stats returns the engine's scheduler counters.
func (e *Engine) Stats() EngineStats {
	return EngineStats{
		Processed:  e.processed,
		MaxPending: e.maxPending,
		Wheel:      e.wheel.wheelEvents,
		Overflow:   e.wheel.overflowEvents,
		Turns:      e.wheel.turns,
		Ingress:    e.ingressed,
	}
}

// Reserve grows the pending-event storage so at least n events can be in
// flight without reallocation. Cluster setup calls it once with the expected
// steady-state event count, so the hot scheduling path never pays for
// incremental growth.
func (e *Engine) Reserve(n int) {
	if e.useHeap {
		e.heap.reserve(n)
		return
	}
	e.wheel.reserve(n)
}

// Schedule runs fn after delay nanoseconds of simulated time.
// A negative delay is treated as zero (run at the current time, after any
// events already scheduled for it).
func (e *Engine) Schedule(delay int64, fn func()) {
	if delay < 0 {
		delay = 0
	}
	e.At(e.now+delay, fn)
}

// At runs fn at absolute simulated time t. Times in the past are clamped to
// the present.
func (e *Engine) At(t int64, fn func()) {
	if t < e.now {
		t = e.now
	}
	e.seq++
	e.push(&event{at: t, seq: localBit | e.seq, fn: fn})
}

// ScheduleEvent runs h.OnEvent(arg) after delay nanoseconds of simulated
// time — the closure-free flavor of Schedule for pre-bound hot handlers.
func (e *Engine) ScheduleEvent(delay int64, h Handler, arg uint64) {
	if delay < 0 {
		delay = 0
	}
	e.AtEvent(e.now+delay, h, arg)
}

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
// whatever order they were scheduled in. That is the canonical order a bound
// Ingress merges to, so an engine fed through AtArrival and an engine fed
// through an Ingress dispatch identically (TestArrivalKeyMatchesIngress).
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

// ReserveSeq allocates and returns the next event sequence number without
// scheduling anything. An elision layer that may or may not materialize an
// event later (the NVM completion train) reserves the seq at the point the
// unelided engine would have scheduled, so every other event's tie-break key
// is identical whether the elision is on or off; AtEventSeq spends the
// reservation if the event turns out to be needed.
func (e *Engine) ReserveSeq() uint64 {
	e.seq++
	return localBit | e.seq
}

// AtEventSeq schedules h.OnEvent(arg) at time t under a sequence number
// previously obtained from ReserveSeq — the event dispatches at exactly the
// (t, seq) position a normally-scheduled event would have occupied at
// reservation time. t must be >= Now(); the caller guarantees it (a
// completion time never precedes the clock that issued it).
func (e *Engine) AtEventSeq(t int64, seq uint64, h Handler, arg uint64) {
	e.push(&event{at: t, seq: seq, h: h, arg: arg})
}

// push schedules a local event and tracks the pending high-water mark,
// which counts local events only: arrivals share the scheduler but are the
// network's backlog, not the node's.
func (e *Engine) push(ev *event) {
	e.schedule(ev)
	if pending := e.schedLen() - e.arrivals; pending > e.maxPending {
		e.maxPending = pending
	}
}

// schedule hands the event to the active scheduler.
func (e *Engine) schedule(ev *event) {
	if ev.at < e.schedLB {
		e.schedLB = ev.at
	}
	if e.useHeap {
		e.heap.push(*ev)
		return
	}
	e.wheel.push(ev, e.now)
}

// schedLen returns the number of events in the active scheduler.
func (e *Engine) schedLen() int {
	if e.useHeap {
		return e.heap.len()
	}
	return e.wheel.len()
}

// headHint returns the scheduler head time recorded by the last failed
// popIfAtMost probe (maxTime when the scheduler was empty). Valid only
// immediately after a failed probe, before any push.
func (e *Engine) headHint() int64 {
	if e.useHeap {
		return e.heap.headHint
	}
	return e.wheel.headHint
}

const maxTime = int64(^uint64(0) >> 1)

// headAt returns the earliest pending local event time (maxTime when the
// scheduler is empty) without dispatching anything.
func (e *Engine) headAt() int64 {
	if e.useHeap {
		return e.heap.headAt()
	}
	return e.wheel.headAt()
}

// TryAdvance reports whether the engine can prove that nothing is pending —
// no scheduled event and no queued Ingress arrival — at or before time t,
// with t still strictly inside the current Run's bound; when so it advances
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
	if e.ing != nil && e.ing.Len() > 0 && e.ing.HeadAt() <= t {
		return false
	}
	// Deferred continuations park work the scheduler cannot see; their
	// registered times make them count against the gap exactly as the
	// scheduled events they stand in for would have.
	for i := range e.chain {
		if e.chain[i].at <= t {
			return false
		}
	}
	if t >= e.schedLB {
		// The lower bound does not prove the gap; probe the real head.
		head := e.headAt()
		if head <= t {
			return false
		}
		e.schedLB = head
	}
	e.now = t
	return true
}

// SetChain registers c to be resolved when the event currently being
// dispatched returns (see ChainResolver), with at the time of the parked
// work. A component registers at most one entry at a time; independent
// components may hold entries simultaneously, and resolution order is
// ascending (at, registration order).
func (e *Engine) SetChain(c ChainResolver, at int64) {
	e.chain = append(e.chain, chainEntry{c: c, at: at})
}

// dispatchOne executes the next event at or before until — the scheduler
// head, or a bound Ingress's head when that is no later — then resolves any
// chained continuations the event deferred, and reports whether anything
// ran.
func (e *Engine) dispatchOne(until int64) bool {
	ran := e.dispatchNext(until)
	// Resolve deferred continuations now that no handler is mid-execution:
	// a clock jump is safe again, and OnChain may itself defer more work.
	// Earliest-at first: the parked work must run in the order the events it
	// stands in for would have dispatched, and resolving a later entry first
	// would only fail its proof against the earlier one still queued.
	for len(e.chain) > 0 {
		mi := 0
		for i := 1; i < len(e.chain); i++ {
			if e.chain[i].at < e.chain[mi].at {
				mi = i
			}
		}
		c := e.chain[mi].c
		copy(e.chain[mi:], e.chain[mi+1:])
		e.chain[len(e.chain)-1] = chainEntry{}
		e.chain = e.chain[:len(e.chain)-1]
		c.OnChain()
	}
	return ran
}

// dispatchNext picks and runs the next event without chain resolution.
func (e *Engine) dispatchNext(until int64) bool {
	// LP wiring: scheduled events strictly before a queued arrival run
	// first; at the arrival's own timestamp the arrival wins. When schedLB
	// already proves nothing scheduled precedes the arrival, skip the
	// scheduler probe — arrival bursts between local events then cost O(1)
	// here instead of a wheel scan each.
	limit, arrival := until, false
	if e.ing != nil && e.ing.Len() > 0 {
		if ia := e.ing.HeadAt(); ia <= until {
			if ia <= e.schedLB {
				return e.popArrival()
			}
			limit, arrival = ia-1, true
		}
	}
	var ev event
	var ok bool
	if e.useHeap {
		ev, ok = e.heap.popIfAtMost(limit)
	} else {
		ev, ok = e.wheel.popIfAtMost(limit)
	}
	if !ok {
		if arrival {
			e.schedLB = e.headHint()
			return e.popArrival()
		}
		return false
	}
	e.schedLB = ev.at
	e.now = ev.at
	e.processed++
	if ev.seq&localBit == 0 {
		e.arrivals--
		e.ingressed++
	}
	ev.run()
	return true
}

// popArrival dispatches the ingress head. Call only when one is pending.
func (e *Engine) popArrival() bool {
	ent := e.ing.Pop()
	e.now = ent.At
	e.processed++
	e.ingressed++
	ent.H.OnEvent(ent.Arg)
	return true
}

// Run executes events in timestamp order until the queue is empty, the
// simulated clock passes until, or Stop is called. It returns the simulated
// time at which it stopped. Events scheduled exactly at until are executed.
func (e *Engine) Run(until int64) int64 {
	e.stopped = false
	e.runUntil = until
	for !e.stopped && e.dispatchOne(until) {
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
	for !e.stopped && e.dispatchOne(maxTime) {
	}
	return e.now
}

// Step executes exactly one event if any is pending and reports whether it
// did.
func (e *Engine) Step() bool {
	e.runUntil = maxTime
	return e.dispatchOne(maxTime)
}

// Stop makes the current Run/RunAll call return after the event in progress.
func (e *Engine) Stop() { e.stopped = true }
