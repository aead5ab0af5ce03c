package anonnet

import (
	"context"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"anonconsensus/internal/core"
	"anonconsensus/internal/giraf"
)

// receive runs q's receiver loop in a goroutine with a tick that never
// fires, forwarding each delivery (and when it happened) to the returned
// channel until the test ends.
func receive(t *testing.T, q *inbox) <-chan delivery {
	t.Helper()
	out := make(chan delivery, 8) // room for every push a test makes: deliver never blocks
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	t.Cleanup(func() {
		cancel()
		<-done
	})
	go func() {
		defer close(done)
		q.await(ctx, nil, func(env giraf.Envelope) {
			out <- delivery{env: env, at: time.Now()}
		})
	}()
	return out
}

type delivery struct {
	env giraf.Envelope
	at  time.Time
}

func next(t *testing.T, out <-chan delivery, what string) delivery {
	t.Helper()
	select {
	case d := <-out:
		return d
	case <-time.After(2 * time.Second):
		t.Fatalf("%s never arrived", what)
		return delivery{}
	}
}

// TestInboxDeadlineOrder: deliveries come out in deadline order, with a
// later-pushed but earlier-due envelope overtaking (per-round latency
// profiles legitimately reorder links), FIFO among equal deadlines, and
// never before the deadline.
func TestInboxDeadlineOrder(t *testing.T) {
	q := newInbox()
	now := time.Now()
	due := map[int]time.Time{
		1: now.Add(20 * time.Millisecond),
		2: now.Add(40 * time.Millisecond),
		3: now.Add(40 * time.Millisecond),
		4: now.Add(60 * time.Millisecond),
	}
	for _, r := range []int{4, 1, 2, 3} {
		q.push(due[r], giraf.Envelope{Round: r})
	}
	out := receive(t, q)
	for want := 1; want <= 4; want++ {
		d := next(t, out, "delivery")
		if d.env.Round != want {
			t.Fatalf("delivery %d: got round %d", want, d.env.Round)
		}
		if d.at.Before(due[want]) {
			t.Fatalf("round %d delivered %v before its deadline", want, due[want].Sub(d.at))
		}
	}
}

// TestInboxEarlierDeadlineWakes: a push with an earlier deadline while the
// receiver is asleep on a later one must wake it and be delivered first,
// long before the later deadline.
func TestInboxEarlierDeadlineWakes(t *testing.T) {
	q := newInbox()
	late := time.Now().Add(300 * time.Millisecond)
	q.push(late, giraf.Envelope{Round: 2})
	out := receive(t, q)
	time.Sleep(10 * time.Millisecond) // let the receiver arm its timer
	q.push(time.Now().Add(10*time.Millisecond), giraf.Envelope{Round: 1})

	d := next(t, out, "preempting delivery")
	if d.env.Round != 1 {
		t.Fatalf("first delivery was round %d, want the preempting 1", d.env.Round)
	}
	if !d.at.Before(late) {
		t.Fatal("the earlier push did not wake the receiver before the later deadline")
	}
}

// TestInboxTickDrainsDue pins the timeliness definition: on a round tick
// every envelope already due is delivered before await returns, so it is
// in that round's view, and nothing not yet due is.
func TestInboxTickDrainsDue(t *testing.T) {
	q := newInbox()
	now := time.Now()
	q.push(now.Add(-time.Millisecond), giraf.Envelope{Round: 1})
	q.push(now, giraf.Envelope{Round: 2})
	q.push(now.Add(time.Hour), giraf.Envelope{Round: 3})
	tick := make(chan time.Time, 1)
	tick <- now
	var got []int
	if !q.await(context.Background(), tick, func(env giraf.Envelope) { got = append(got, env.Round) }) {
		t.Fatal("await ignored the tick")
	}
	if len(got) != 2 || got[0] != 1 || got[1] != 2 {
		t.Fatalf("delivered %v by the tick, want [1 2]", got)
	}

	q.close()
	q.push(now, giraf.Envelope{Round: 4})
	if len(q.heap) != 0 {
		t.Fatal("a closed inbox kept a push")
	}
}

// TestBroadcastGoroutinesBounded: a run has exactly one goroutine per
// process, however many envelopes are in flight, and leaves none behind.
// With 6 processes ticking every 2ms under a 250ms link latency, no
// envelope is due before every process has decided alone, so every
// broadcast of the run is still waiting in an inbox when the peak is
// sampled.
func TestBroadcastGoroutinesBounded(t *testing.T) {
	const n = 6
	base := runtime.NumGoroutine()
	props := core.DistinctProposals(n)

	var peak atomic.Int64
	_, err := Run(context.Background(), Config{
		N:         n,
		Automaton: func(i int) giraf.Automaton { return core.NewESS(props[i]) },
		Interval:  2 * time.Millisecond,
		Latency:   fixedLatency{d: 250 * time.Millisecond},
		Timeout:   1500 * time.Millisecond,
		OnRound: func(proc, round int, aut giraf.Automaton) {
			g := int64(runtime.NumGoroutine())
			for {
				cur := peak.Load()
				if g <= cur || peak.CompareAndSwap(cur, g) {
					break
				}
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	// Budget: base + n processes + a little harness slack.
	budget := int64(base + n + 3)
	if p := peak.Load(); p > budget {
		t.Errorf("peak goroutines %d exceeds budget %d (base %d, n %d)", p, budget, base, n)
	} else if p == 0 {
		t.Error("no samples taken")
	}
	// The process goroutines are past their last statement once Run
	// returns; give the scheduler a moment to retire them.
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > base && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if g := runtime.NumGoroutine(); g > base {
		t.Errorf("%d goroutines after Run returned, want base %d", g, base)
	}
}

// TestRunAllocationBound pins the cost of one small run: ES at n=5 with
// synchronous links allocates well under 256 KiB. A per-process buffered
// inbox channel (4096 slots of 72-byte envelopes, 288 KiB each) would
// blow this several times over.
func TestRunAllocationBound(t *testing.T) {
	const n, runs, limit = 5, 5, 256 << 10
	props := core.DistinctProposals(n)
	cfg := Config{
		N:         n,
		Automaton: esFactory(props),
		Interval:  2 * time.Millisecond,
		Latency:   Sync{Interval: 2 * time.Millisecond},
		Timeout:   10 * time.Second,
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		res, err := Run(context.Background(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		requireLiveConsensus(t, res, props)
	}
	runtime.ReadMemStats(&after)
	if per := (after.TotalAlloc - before.TotalAlloc) / runs; per > limit {
		t.Errorf("one ES n=%d run allocates %d B, want under %d B", n, per, limit)
	} else {
		t.Logf("one ES n=%d run allocates %d B", n, per)
	}
}

// fixedLatency delays every link by a constant, far beyond the round
// interval, to maximize envelopes in flight.
type fixedLatency struct{ d time.Duration }

func (f fixedLatency) Delay(round, from, to int) time.Duration { return f.d }
