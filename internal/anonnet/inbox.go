package anonnet

import (
	"context"
	"sync"
	"time"

	"anonconsensus/internal/giraf"
)

// inbox is one receiver's delivery queue: every envelope addressed to the
// process waits in a deadline-ordered min-heap until its link latency has
// elapsed, and the receiver's own goroutine pops it (await). Senders push
// under the mutex and never block. Latency profiles vary per round and per
// link, so a later envelope may legitimately overtake an earlier one.
type inbox struct {
	mu     sync.Mutex
	heap   []queuedEnvelope
	seq    uint64
	closed bool // the receiver exited; later pushes are discarded
	// wake (capacity 1) tells the receiver that a push installed a new
	// earliest deadline, so its timer must be re-armed.
	wake chan struct{}

	// Receiver-side state, touched only by the goroutine running await.
	timer *time.Timer
	armed time.Time // the deadline timer is set to; zero when idle
}

// queuedEnvelope is one scheduled delivery; seq breaks deadline ties in
// FIFO order so equal-latency envelopes keep their send order.
type queuedEnvelope struct {
	at  time.Time
	seq uint64
	env giraf.Envelope
}

func newInbox() *inbox {
	t := time.NewTimer(time.Hour)
	t.Stop()
	return &inbox{wake: make(chan struct{}, 1), timer: t}
}

// push schedules env for delivery at deadline at.
func (q *inbox) push(at time.Time, env giraf.Envelope) {
	q.mu.Lock()
	if q.closed {
		q.mu.Unlock()
		return
	}
	q.seq++
	q.heap = append(q.heap, queuedEnvelope{at: at, seq: q.seq, env: env})
	newHead := q.siftUp(len(q.heap)-1) == 0
	q.mu.Unlock()
	if newHead {
		select {
		case q.wake <- struct{}{}:
		default:
		}
	}
}

// await delivers envelopes as their deadlines pass until tick fires or ctx
// is done. On a tick it first pops every envelope already due, so an
// envelope due before the tick is always in that round's view, and then
// returns true. It returns false once ctx is done.
func (q *inbox) await(ctx context.Context, tick <-chan time.Time, deliver func(giraf.Envelope)) bool {
	for {
		q.arm()
		select {
		case <-ctx.Done():
			return false
		case <-q.wake:
		case <-q.timer.C:
			q.armed = time.Time{}
			q.drain(deliver)
		case <-tick:
			q.drain(deliver)
			return true
		}
	}
}

// arm points the timer at the head deadline unless it already is.
func (q *inbox) arm() {
	q.mu.Lock()
	var at time.Time
	if len(q.heap) > 0 {
		at = q.heap[0].at
	}
	q.mu.Unlock()
	if at.IsZero() || at.Equal(q.armed) {
		return
	}
	q.armed = at
	q.timer.Reset(time.Until(at))
}

// drain hands every envelope whose deadline has passed to deliver, in
// deadline order. deliver runs outside the lock.
func (q *inbox) drain(deliver func(giraf.Envelope)) {
	now := time.Now()
	for {
		q.mu.Lock()
		if len(q.heap) == 0 || q.heap[0].at.After(now) {
			q.mu.Unlock()
			return
		}
		env := q.heap[0].env
		last := len(q.heap) - 1
		q.heap[0] = q.heap[last]
		q.heap[last] = queuedEnvelope{} // release the payload reference
		q.heap = q.heap[:last]
		q.siftDown(0)
		q.mu.Unlock()
		deliver(env)
	}
}

// close discards the queue and every later push: the receiver stopped
// reading, so nothing addressed to it can matter any more.
func (q *inbox) close() {
	q.mu.Lock()
	q.closed = true
	q.heap = nil
	q.mu.Unlock()
	q.timer.Stop()
}

func (q *inbox) less(i, j int) bool {
	if !q.heap[i].at.Equal(q.heap[j].at) {
		return q.heap[i].at.Before(q.heap[j].at)
	}
	return q.heap[i].seq < q.heap[j].seq
}

// siftUp restores the heap above i and returns the entry's final index.
func (q *inbox) siftUp(i int) int {
	for i > 0 {
		parent := (i - 1) / 2
		if !q.less(i, parent) {
			break
		}
		q.heap[i], q.heap[parent] = q.heap[parent], q.heap[i]
		i = parent
	}
	return i
}

func (q *inbox) siftDown(i int) {
	for {
		l, r := 2*i+1, 2*i+2
		small := i
		if l < len(q.heap) && q.less(l, small) {
			small = l
		}
		if r < len(q.heap) && q.less(r, small) {
			small = r
		}
		if small == i {
			return
		}
		q.heap[i], q.heap[small] = q.heap[small], q.heap[i]
		i = small
	}
}
