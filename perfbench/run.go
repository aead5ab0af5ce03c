package main

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"runtime/metrics"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	ac "anonconsensus"
)

// workload is one named traffic mix and the Node it runs against.
type workload struct {
	name    string
	closed  bool    // closed loop: clients issue the next op when theirs completes
	clients int     // closed-loop client count
	rate    float64 // open-loop mean arrivals per second
	shape   float64 // open-loop Gamma shape of the inter-arrival gaps
	// limit is the decide latency an op must meet to count toward
	// goodput; lagBound is the generator lag (p99) beyond which a run is
	// invalid, because the load it applied was not the load it claims.
	limit    time.Duration
	lagBound time.Duration
	options  []ac.Option // Node session options
	classes  []class
	warm     op // the set-up instance
	// setupReps is how many times a run sets up, to report the median.
	setupReps int
	transport func() ac.Transport
	traced    func(*tracer) ac.Transport
}

// outcome is what the client saw of one op. Times are offsets from the
// run start.
type outcome struct {
	class    string
	due      time.Duration
	issued   time.Duration // Propose called
	returned time.Duration // Propose returned
	observed time.Duration // outcome reached the client
	verdict  verdict
	// digest identifies the Result, so a traced pass can be compared
	// with the untraced one without keeping every Result alive.
	digest uint64
	detail string // the op and its decisions, kept only for a violation
}

// observe records op's outcome in out as the client sees it and checks
// it. Only what the metrics need is kept, so the harness's memory does
// not grow with the run.
func (r *runResult) observe(out *outcome, at time.Duration, o *op, res *ac.Result, err error) {
	out.observed = at
	out.verdict = check(o.proposals, res, err)
	if r.pass.digests {
		out.digest = digest(res)
	}
	if out.verdict.violation() {
		out.detail = fmt.Sprintf("%s (%s, n=%d, gst %d, seed %d, source %d, crash %v, dup %d%%): %s; decisions %+v",
			opID(r.pass.prefix, o.index), o.class, o.n, o.gst, o.seed, o.source, o.crash, o.dupPct, out.verdict, res.Decisions)
	}
}

// latency is the decide latency: due to observed.
func (o *outcome) latency() time.Duration { return o.observed - o.due }

// pass says what one pass over a workload runs and what it keeps.
type pass struct {
	prefix string // instance IDs are prefix-<op index>, distinct per pass
	seed   int64
	length time.Duration
	sample bool // poll heap size and goroutine count
	// digests keeps each Result's digest, for comparing a traced pass
	// with the untraced one; off, hashing stays out of the measured CPU.
	digests bool
}

// runResult is one measured pass of a workload over one Node.
type runResult struct {
	pass    pass
	outs    []outcome
	elapsed time.Duration // run start to the last outcome: the span goodput is divided by
	cpu     time.Duration // process user+sys over the pass
	allocs  uint64        // heap bytes allocated over the pass
	node    ac.NodeStats
	start   time.Time
	rt      runtimeStats
}

// cpuTime returns the process's user+sys CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// maxRSS returns the process's peak resident set, in bytes.
func maxRSS() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) * 1024 // Linux reports KiB
}

// runtimeStats are Go runtime counters over a pass.
type runtimeStats struct {
	gcCPU, liveCPU float64 // seconds
	gcCycles       uint64
	heapPeak       uint64
	goroutinesPeak int
}

var rtNames = []string{
	"/gc/heap/allocs:bytes",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
	"/cpu/classes/idle:cpu-seconds",
	"/gc/cycles/total:gc-cycles",
	"/memory/classes/heap/objects:bytes",
}

func readRuntime() []metrics.Sample {
	s := make([]metrics.Sample, len(rtNames))
	for i, n := range rtNames {
		s[i].Name = n
	}
	metrics.Read(s)
	return s
}

func f64(s metrics.Sample) float64 {
	if s.Value.Kind() == metrics.KindFloat64 {
		return s.Value.Float64()
	}
	return 0
}

func u64(s metrics.Sample) uint64 {
	if s.Value.Kind() == metrics.KindUint64 {
		return s.Value.Uint64()
	}
	return 0
}

// sampler polls heap size and goroutine count until stopped.
type sampler struct {
	stop     chan struct{}
	done     chan struct{}
	heapPeak uint64
	grPeak   int
}

func startSampler() *sampler {
	s := &sampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(s.done)
		tick := time.NewTicker(5 * time.Millisecond)
		defer tick.Stop()
		heap := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
		for {
			metrics.Read(heap)
			s.heapPeak = max(s.heapPeak, u64(heap[0]))
			s.grPeak = max(s.grPeak, runtime.NumGoroutine())
			select {
			case <-s.stop:
				return
			case <-tick.C:
			}
		}
	}()
	return s
}

func (s *sampler) finish() (uint64, int) {
	close(s.stop)
	<-s.done
	return s.heapPeak, s.grPeak
}

// setUp starts a Node and runs the workload's warm-up instance on it,
// returning the node and the time from NewNode to the warm-up decision.
func setUp(ctx context.Context, w *workload, t ac.Transport) (*ac.Node, time.Duration, error) {
	start := time.Now()
	node, err := ac.NewNode(t, w.options...)
	if err != nil {
		return nil, 0, err
	}
	res, err := node.Run(ctx, "setup", w.warm.proposals, w.warm.options()...)
	d := time.Since(start)
	if err == nil {
		if v := check(w.warm.proposals, res, nil); v != verdictOK {
			err = fmt.Errorf("warm-up instance: %s", v)
		}
	}
	if err != nil {
		node.Close()
		return nil, 0, fmt.Errorf("%s set-up: %w", w.name, err)
	}
	return node, d, nil
}

// measure runs one pass of the workload on node and checks every op.
func measure(ctx context.Context, w *workload, node *ac.Node, p pass) (*runResult, error) {
	var smp *sampler
	if p.sample {
		smp = startSampler()
	}
	rt0 := readRuntime()
	cpu0 := cpuTime()
	r := &runResult{pass: p, start: time.Now()}
	var err error
	if w.closed {
		err = runClosed(ctx, w, node, r)
	} else {
		err = runOpen(ctx, w, node, r)
	}
	r.cpu = cpuTime() - cpu0
	rt1 := readRuntime()
	if smp != nil {
		r.rt.heapPeak, r.rt.goroutinesPeak = smp.finish()
	}
	r.allocs = u64(rt1[0]) - u64(rt0[0])
	r.rt.gcCPU = f64(rt1[1]) - f64(rt0[1])
	r.rt.liveCPU = (f64(rt1[2]) - f64(rt1[3])) - (f64(rt0[2]) - f64(rt0[3]))
	r.rt.gcCycles = u64(rt1[4]) - u64(rt0[4])
	r.node = node.Stats()
	for i := range r.outs {
		r.elapsed = max(r.elapsed, r.outs[i].observed)
	}
	return r, err
}

// runClosed drives w.clients clients, each proposing its next op as soon
// as the previous one completed, until the pass's length has passed.
func runClosed(ctx context.Context, w *workload, node *ac.Node, r *runResult) error {
	type rec struct {
		index int
		out   outcome
	}
	var next atomic.Int64
	perClient := make([][]rec, w.clients)
	var wg sync.WaitGroup
	for c := 0; c < w.clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for time.Since(r.start) < r.pass.length {
				i := int(next.Add(1) - 1)
				o := makeOp(r.pass.seed, i, w.classes)
				out := outcome{class: o.class, due: time.Since(r.start)}
				out.issued = out.due
				id := opID(r.pass.prefix, i)
				if err := node.Propose(ctx, id, o.proposals, o.options()...); err != nil {
					r.observe(&out, time.Since(r.start), &o, nil, err)
				} else {
					out.returned = time.Since(r.start)
					res, err := node.Wait(ctx, id)
					r.observe(&out, time.Since(r.start), &o, res, err)
				}
				perClient[c] = append(perClient[c], rec{i, out})
			}
		}(c)
	}
	wg.Wait()
	r.outs = make([]outcome, int(next.Load()))
	for _, recs := range perClient {
		for _, x := range recs {
			r.outs[x.index] = x.out
		}
	}
	return nil
}

// drainTimeout bounds how long an open-loop pass waits for outstanding
// outcomes after the last arrival.
const drainTimeout = 20 * time.Second

// runOpen issues the seeded arrival schedule on time, whatever the
// system's state, and collects outcomes from the Node's event feed.
func runOpen(ctx context.Context, w *workload, node *ac.Node, r *runResult) error {
	ops := schedule(r.pass.seed, w.rate, w.shape, r.pass.length, w.classes)
	r.outs = make([]outcome, len(ops))
	issuedOK := make(chan int, 1)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { // the issuer
		defer wg.Done()
		ok := 0
		for i := range ops {
			o := &ops[i]
			out := &r.outs[i]
			out.class = o.class
			out.due = o.due
			if wait := o.due - time.Since(r.start); wait > 0 {
				time.Sleep(wait)
			}
			out.issued = time.Since(r.start)
			if err := node.Propose(ctx, opID(r.pass.prefix, i), o.proposals, o.options()...); err != nil {
				r.observe(out, time.Since(r.start), o, nil, err)
				continue
			}
			out.returned = time.Since(r.start)
			ok++
		}
		issuedOK <- ok
	}()

	// The collector: this goroutine.
	events := node.Decisions()
	seen, want := 0, -1
	var deadline <-chan time.Time
	for want < 0 || seen < want {
		select {
		case ev, open := <-events:
			if !open {
				wg.Wait()
				return errors.New("event feed closed early")
			}
			if ev.Kind != ac.EventInstanceDone || !strings.HasPrefix(ev.Instance, r.pass.prefix+"-") {
				continue
			}
			i := opIndex(ev.Instance)
			if i < 0 || i >= len(r.outs) {
				continue
			}
			at := time.Since(r.start)
			// Done is emitted just before the instance is marked
			// finished, so Forget could miss it; Wait returns at once
			// and always releases it.
			res, err := node.Wait(ctx, ev.Instance)
			r.observe(&r.outs[i], at, &ops[i], res, err)
			seen++
		case want = <-issuedOK:
			deadline = time.After(drainTimeout)
		case <-deadline:
			wg.Wait()
			return fmt.Errorf("%d of %d outcomes still missing %v after the last arrival", want-seen, want, drainTimeout)
		}
	}
	wg.Wait()
	return nil
}

// ok returns the ok ops' indexes in op order.
func (r *runResult) ok() []int {
	var out []int
	for i := range r.outs {
		if r.outs[i].verdict == verdictOK {
			out = append(out, i)
		}
	}
	return out
}

// violations lists the ops whose outcome broke agreement or validity.
func (r *runResult) violations() []string {
	var out []string
	for i := range r.outs {
		if r.outs[i].verdict.violation() {
			out = append(out, r.outs[i].detail)
		}
	}
	return out
}

// failures counts the failed ops by verdict.
func (r *runResult) failures() map[verdict]int {
	out := map[verdict]int{}
	for i := range r.outs {
		if r.outs[i].verdict != verdictOK {
			out[r.outs[i].verdict]++
		}
	}
	return out
}

func (r *runResult) failed() int {
	n := 0
	for _, c := range r.failures() {
		n += c
	}
	return n
}

// genLag returns the issuer's lateness (issued − due) per op.
func (r *runResult) genLag() sample {
	var s sample
	for i := range r.outs {
		s = append(s, ms(r.outs[i].issued-r.outs[i].due))
	}
	return s
}

// sortedVerdicts lists a failure map's keys in a fixed order.
func sortedVerdicts(m map[verdict]int) []verdict {
	out := make([]verdict, 0, len(m))
	for v := range m {
		out = append(out, v)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}
