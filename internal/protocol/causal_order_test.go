package protocol

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/params"
)

// refFiler is the reorder buffer as it filed before buffered updates held
// their boxes: each parked update keeps its own copy of its history, and one
// map per writer, keyed by count, holds the FIFO of updates waiting for that
// count. It is the oracle of TestCausalApplyOrderMatchesReference; apply is
// the binding's apply, which advances the applied vector itself or not.
type refFiler struct {
	applied  []uint64
	waiting  []map[uint64][]refUpd
	queue    [][2]uint64 // (node, count) increments awaiting drain
	draining bool
	n        int
	m        Metrics // BufferedUpdates, BufferPeak and BufferSum
	apply    func(u refUpd)
}

type refUpd struct {
	key  uint64
	st   Stamp
	hist []uint64
}

// keyStamp is one apply: the version (key, st) installed.
type keyStamp struct {
	key uint64
	st  Stamp
}

// blocker returns u's first unsatisfied dependency, or node -1.
func (f *refFiler) blocker(u refUpd) (node int, count uint64) {
	for i, v := range u.hist {
		if i == u.st.Node() {
			v--
		}
		if f.applied[i] < v {
			return i, v
		}
	}
	return -1, 0
}

func (f *refFiler) deliver(u refUpd) {
	if f.applied[u.st.Node()] >= u.hist[u.st.Node()] {
		return
	}
	if node, _ := f.blocker(u); node < 0 {
		f.apply(u)
		return
	}
	f.m.BufferedUpdates++
	f.m.BufferSum += uint64(f.n)
	f.file(u)
	f.m.BufferPeak = max(f.m.BufferPeak, f.n)
}

func (f *refFiler) file(u refUpd) {
	node, count := f.blocker(u)
	switch {
	case node >= 0:
		if f.waiting[node] == nil {
			f.waiting[node] = map[uint64][]refUpd{}
		}
		f.waiting[node][count] = append(f.waiting[node][count], u)
		f.n++
	case f.applied[u.st.Node()] < u.hist[u.st.Node()]:
		f.apply(u)
	}
}

func (f *refFiler) advance(node int) {
	f.applied[node]++
	f.queue = append(f.queue, [2]uint64{uint64(node), f.applied[node]})
	if f.draining {
		return
	}
	f.draining = true
	for i := 0; i < len(f.queue); i++ {
		node, count := int(f.queue[i][0]), f.queue[i][1]
		fifo := f.waiting[node][count]
		delete(f.waiting[node], count)
		for _, u := range fifo {
			f.n--
			f.file(u)
		}
	}
	f.queue, f.draining = f.queue[:0], false
}

// logApplies records every version r installs, read from the "update
// replica" line its trace prints for each: under this test's traffic, the
// causal applies in order.
func logApplies(t *testing.T, r *Replica) *[]keyStamp {
	var got []keyStamp
	r.tracer = func(_ int, what string) {
		line, ok := strings.CutPrefix(what, "update replica ")
		if !ok {
			return
		}
		var key, ts uint64
		var node int
		if _, err := fmt.Sscanf(line, "k%d=%d.%d", &key, &ts, &node); err != nil {
			t.Fatalf("trace line %q: %v", what, err)
		}
		got = append(got, keyStamp{key, MakeStamp(ts, node)})
	}
	return &got
}

// causalStream returns n writes of writers 0..writers-1 in issue order, each
// with a happens-before history: its writer's own count, and for every other
// writer a count it has seen, which grows at random but never past what that
// writer has issued. Keys are unique, so every apply installs a version.
func causalStream(rng *rand.Rand, size, writers, n int) []refUpd {
	seen := make([][]uint64, writers)
	for w := range seen {
		seen[w] = make([]uint64, size)
	}
	var out []refUpd
	for k := 1; k <= n; k++ {
		w := rng.Intn(writers)
		for j := range writers {
			if gap := seen[j][j] - seen[w][j]; j != w && gap > 0 && rng.Intn(3) == 0 {
				seen[w][j] += 1 + uint64(rng.Intn(int(gap)))
			}
		}
		seen[w][w]++
		out = append(out, refUpd{key: uint64(k), st: MakeStamp(uint64(k), w), hist: slices.Clone(seen[w])})
	}
	return out
}

// TestCausalApplyOrderMatchesReference drives real replicas and the
// reference filer with the same seeded causal traffic: 3-5 writers in a group
// of writers+1, each write applied at its writer when issued and delivered to
// every other replica after a random delay — out of order, one in five twice
// — or, under SerialPropagation, to the writer's ring successor only, which
// forwards it down the chain. Every replica must apply the same (key, stamp)
// sequence as its oracle, and read the same BufferLen, BufferPeak and
// BufferSum after every event. Under Synchronous persistency an update's
// applied count advances only when its persist completes; each such advance
// is fed to the oracle as it happens.
//
// A duplicate that reaches a Synchronous replica between an update's apply
// and its persist is not yet stale: it applies again and advances its
// writer's count a second time, in the oracle as in the replica. simnet never
// duplicates a message, so the simulator cannot reach this; the Synchronous
// runs with duplicates check the two filers against each other only, and the
// runs without them check that every write applies everywhere.
func TestCausalApplyOrderMatchesReference(t *testing.T) {
	for _, p := range []core.Persistency{core.EventualP, core.Synchronous} {
		for _, chain := range []bool{false, true} {
			for seed := int64(1); seed <= 6; seed++ {
				writers, dups := 3+int(seed)%3, p == core.EventualP || seed%2 == 0
				t.Run(fmt.Sprintf("%v/chain=%v/writers=%d/dups=%v/seed=%d", p, chain, writers, dups, seed), func(t *testing.T) {
					checkApplyOrder(t, p, chain, dups, writers, seed)
				})
			}
		}
	}
}

func checkApplyOrder(t *testing.T, p core.Persistency, chain, dups bool, writers int, seed int64) {
	size := writers + 1
	tc := newTestCluster(mdl(core.Causal, p), size, func(pp *params.Params) {
		pp.Keys = 4096
		pp.SerialPropagation = chain
	})
	ref := make([]*refFiler, size)
	want := make([][]keyStamp, size)
	logs := make([]*[]keyStamp, size)
	for i, r := range tc.reps {
		logs[i] = logApplies(t, r)
		f := &refFiler{applied: make([]uint64, size), waiting: make([]map[uint64][]refUpd, size)}
		installed := map[uint64]bool{}
		f.apply = func(u refUpd) {
			if !installed[u.key] { // a version installs once, however often it applies
				installed[u.key] = true
				want[i] = append(want[i], keyStamp{u.key, u.st})
			}
			if p == core.EventualP {
				f.advance(u.st.Node())
			}
		}
		ref[i] = f
		parked := map[int32]bool{} // a message's first sighting parks it, its second dispatches it
		r.watch = func(tok int32, pp *payload) {
			if parked[tok] = !parked[tok]; !parked[tok] {
				delete(parked, tok)
				f.deliver(refUpd{key: pp.Key, st: pp.Stamp, hist: slices.Clone(pp.Cauhist)})
			}
		}
	}

	rng := rand.New(rand.NewSource(seed))
	issued := make([]uint64, size)
	at, doubled := int64(0), 0
	for _, u := range causalStream(rng, size, writers, 240) {
		at += int64(rng.Intn(400))
		w := u.st.Node()
		issued[w]++
		upd := payload{Kind: MsgUPD, Key: u.key, Stamp: u.st, Cauhist: u.hist, Chain: chain}
		tc.eng.At(at, func() { // the write applies at its writer
			ref[w].advance(w)
			tc.reps[w].advanceApplied(w)
		})
		to := []int{(w + 1) % size}
		if !chain {
			to = to[:0]
			for r := range size {
				if r != w {
					to = append(to, r)
				}
			}
		}
		for _, r := range to {
			copies := 1
			if rng.Intn(5) == 0 && dups {
				copies, doubled = 2, doubled+1
			}
			for range copies {
				tc.eng.At(at+1+int64(rng.Intn(6000)), func() { deliverBoxed(tc.reps[r], w, upd) })
			}
		}
	}

	for events := 1; tc.eng.Step(); events++ {
		for i, r := range tc.reps {
			f := ref[i]
			// An advance the replica made outside its drain — a persist
			// completing under Synchronous — is fed to the oracle. Advances
			// of two writers in one event would leave their order open.
			moved := 0
			for node, v := range r.appliedVC {
				if f.applied[node] < v {
					moved++
				}
				for f.applied[node] < v {
					f.advance(node)
				}
			}
			if moved > 1 {
				t.Fatalf("event %d: node %d advanced %d writers' counts in one event; the oracle cannot order them", events, i, moved)
			}
			if !slices.Equal(*logs[i], want[i]) {
				t.Fatalf("event %d: node %d applied %v, reference %v", events, i, tail(*logs[i]), tail(want[i]))
			}
			if r.BufferLen() != f.n || r.M.BufferedUpdates != f.m.BufferedUpdates ||
				r.M.BufferPeak != f.m.BufferPeak || r.M.BufferSum != f.m.BufferSum {
				t.Fatalf("event %d: node %d buffer len %d buffered %d peak %d sum %d; reference %d %d %d %d", events, i,
					r.BufferLen(), r.M.BufferedUpdates, r.M.BufferPeak, r.M.BufferSum,
					f.n, f.m.BufferedUpdates, f.m.BufferPeak, f.m.BufferSum)
			}
		}
	}
	buffered := uint64(0)
	for i, r := range tc.reps {
		if (p == core.EventualP || !dups) && (r.BufferLen() != 0 || !slices.Equal(r.AppliedVC(), issued)) {
			t.Fatalf("node %d: buffer %d, applied %v; want drained with every write applied (%v)", i, r.BufferLen(), r.AppliedVC(), issued)
		}
		buffered += r.M.BufferedUpdates
	}
	if buffered == 0 || dups && doubled == 0 {
		t.Fatalf("%d updates buffered, %d deliveries doubled: the traffic does not reach the buffer", buffered, doubled)
	}
}

// tail returns the last few entries of an apply log, for a failure message.
func tail(l []keyStamp) []keyStamp { return l[max(0, len(l)-4):] }
