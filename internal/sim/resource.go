package sim

// Pool models a set of identical servers (e.g. worker threads) with a shared
// FIFO queue — the standard M/G/c service-center abstraction used throughout
// the simulator. Two job flavors exist:
//
//   - AcquireEvent: occupies one server for a fixed service time (message
//     handling, request compute).
//   - AcquireHold: occupies one server until the job calls Release — a
//     run-to-completion worker blocking on a stalled operation. Holds are
//     capped below the pool size so fixed jobs (which include the protocol
//     messages that eventually unblock the holders) can never starve: this
//     is what lets stalled reads deplete — but not deadlock — a node's
//     worker pool, the paper's high-client-count degradation mechanism.
//
// The queue is two ring-buffer FIFOs, of 48-byte fixed jobs and 32-byte
// holds, ordered by a shared arrival sequence: dispatch pops the earlier head,
// except that the hold ring is skipped while holds are at the cap, so dispatch
// is O(1) per started job however deep the backlog; a fixed job that finds a
// free server and both rings empty skips them. Fixed-job completions are
// typed engine events (Handler + the token the engine parks the completion
// under, Engine.Park) and a hold is its Holder plus the Hold token it hands
// back, so the steady-state dispatch cycle allocates nothing for either
// flavor (TestPoolDeepQueueAllocs, TestPoolHoldAllocs).
type Pool struct {
	eng      *Engine
	size     int
	maxHolds int

	busy  int
	holds int
	fifo  ring[fixedJob] // fixed-service jobs
	holdq ring[holdJob]  // hold jobs, capped at maxHolds running
	seq   uint64         // arrival order across both rings

	jobs    uint64
	busyAcc int64
	maxWait int64
	sumWait int64
}

// fixedJob is one queued fixed-service request, completed by h.OnEvent(arg).
type fixedJob struct {
	seq     uint64 // arrival order across the two rings
	at      int64  // enqueue time
	service int64
	h       Handler
	arg     uint64
}

// holdJob is one queued hold request.
type holdJob struct {
	seq  uint64 // arrival order across the two rings
	at   int64  // enqueue time
	hold Holder
}

// Holder is a hold job: OnHold runs once a server is acquired, and the job
// keeps that server until it passes h to Pool.Release (exactly once).
// Implementations are recycled operation records, so queueing and running a
// hold allocates nothing.
type Holder interface {
	OnHold(h Hold)
}

// Hold identifies a running hold job to Release: the time its server was
// acquired, or noHold when the job occupies none.
type Hold int64

const noHold Hold = -1

// ring is a growable FIFO ring buffer of queued jobs.
type ring[T any] struct {
	buf  []T
	head int
	n    int
}

func (r *ring[T]) push(j T) {
	if r.n == len(r.buf) {
		grown := make([]T, max(4, 2*len(r.buf)))
		n := copy(grown, r.buf[r.head:]) // the ring is full: unwrap it, oldest first
		copy(grown[n:], r.buf[:r.head])
		r.buf = grown
		r.head = 0
	}
	r.buf[(r.head+r.n)&(len(r.buf)-1)] = j
	r.n++
}

func (r *ring[T]) front() *T { return &r.buf[r.head] }

func (r *ring[T]) pop() T {
	j := r.buf[r.head]
	r.buf[r.head] = *new(T) // release the handlers for GC
	r.head = (r.head + 1) & (len(r.buf) - 1)
	r.n--
	return j
}

// NewPool creates a pool of n servers on engine eng. n must be >= 1.
func NewPool(eng *Engine, n int) *Pool {
	if n < 1 {
		panic("sim: pool needs at least one server")
	}
	maxHolds := n - 1
	if maxHolds < 1 {
		maxHolds = 1 // single-server pools run holds without blocking (see AcquireHold)
	}
	return &Pool{eng: eng, size: n, maxHolds: maxHolds}
}

// AcquireEvent enqueues a fixed-service job whose completion runs
// h.OnEvent(arg); h may be nil.
func (p *Pool) AcquireEvent(service int64, h Handler, arg uint64) {
	if service < 0 {
		service = 0
	}
	if p.busy < p.size && p.fifo.n == 0 && p.holdq.n == 0 {
		// Nothing queued to overtake: start in place, with zero wait.
		p.jobs++
		p.startFixed(service, h, arg)
		return
	}
	p.seq++
	p.fifo.push(fixedJob{seq: p.seq, at: p.eng.Now(), service: service, h: h, arg: arg})
	p.dispatch()
}

// AcquireHold enqueues a job that occupies a server from the moment
// j.OnHold runs until the job calls Release. On a single-server pool the
// hold runs immediately without occupancy, so the server stays available for
// the messages that unblock the holder.
func (p *Pool) AcquireHold(j Holder) {
	if p.size == 1 {
		j.OnHold(noHold)
		return
	}
	p.seq++
	p.holdq.push(holdJob{seq: p.seq, at: p.eng.Now(), hold: j})
	p.dispatch()
}

// Release ends the hold job that OnHold handed h to, freeing its server for
// the queue. Releasing a hold twice is a caller bug and panics once no hold
// is left to charge it to.
func (p *Pool) Release(h Hold) {
	if h == noHold {
		return
	}
	if p.holds == 0 {
		panic("sim: pool hold released twice")
	}
	p.busy--
	p.holds--
	p.busyAcc += p.eng.Now() - int64(h)
	p.dispatch()
}

// dispatch starts every queued job that can run: across the two rings in
// arrival order, except that holds stop being eligible at maxHolds (later
// fixed jobs then bypass the blocked holds so message processing never
// starves).
func (p *Pool) dispatch() {
	for p.busy < p.size {
		holdOK := p.holdq.n > 0 && p.holds < p.maxHolds
		switch {
		case p.fifo.n > 0 && (!holdOK || p.fifo.front().seq < p.holdq.front().seq):
			j := p.fifo.pop()
			p.waited(j.at)
			p.startFixed(j.service, j.h, j.arg)
		case holdOK:
			j := p.holdq.pop()
			p.busy++
			p.holds++
			j.hold.OnHold(Hold(p.waited(j.at)))
		default:
			return
		}
	}
}

// waited counts a queued job that starts now after waiting since at, and
// returns now.
func (p *Pool) waited(at int64) int64 {
	now := p.eng.Now()
	wait := now - at
	p.jobs++
	p.sumWait += wait
	if wait > p.maxWait {
		p.maxWait = wait
	}
	return now
}

// startFixed occupies a server for service ns: it parks the completion
// h.OnEvent(arg) on the engine and schedules the park's token.
func (p *Pool) startFixed(service int64, h Handler, arg uint64) {
	p.busy++
	p.busyAcc += service
	p.eng.ScheduleEvent(service, p, uint64(p.eng.Park(Call{h, arg})))
}

// OnEvent completes the fixed job parked at token arg: free a server, fire
// the completion, refill from the queue. It implements Handler so the
// service-time event schedules closure-free.
func (p *Pool) OnEvent(arg uint64) {
	p.busy--
	p.eng.Unpark(int32(arg)).Run()
	p.dispatch()
}

// Jobs returns the number of jobs started.
func (p *Pool) Jobs() uint64 { return p.jobs }

// BusyTime returns the total accumulated service time across servers.
func (p *Pool) BusyTime() int64 { return p.busyAcc }

// MeanWait returns the average queueing delay per job in ns.
func (p *Pool) MeanWait() float64 {
	if p.jobs == 0 {
		return 0
	}
	return float64(p.sumWait) / float64(p.jobs)
}

// MaxWait returns the largest queueing delay observed.
func (p *Pool) MaxWait() int64 { return p.maxWait }

// Size returns the number of servers in the pool.
func (p *Pool) Size() int { return p.size }

// Held returns how many servers are currently blocked in holds.
func (p *Pool) Held() int { return p.holds }

// Queued returns the number of jobs waiting for a server.
func (p *Pool) Queued() int { return p.fifo.n + p.holdq.n }
