package main

import (
	"bufio"
	"compress/gzip"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"anonconsensus/internal/giraf"
	"anonconsensus/internal/sim"
)

// spanKind names the layer boundary a span was recorded at.
type spanKind uint8

const (
	spanTransport spanKind = iota // transport.run: one Transport.Run call
	spanSim                       // sim.run: sim.Engine.RunContext
	spanAnonnet                   // anonnet.run: anonnet.Run
	spanTCP                       // tcpnet.run: one process's MuxNode.RunInstance
	spanCompute                   // core.compute: one Automaton.Compute call
	spanDial                      // tcpnet.dial: one tcpnet.DialMux call
)

var spanNames = [...]string{"transport.run", "sim.run", "anonnet.run", "tcpnet.run", "core.compute", "tcpnet.dial"}

func (k spanKind) String() string { return spanNames[k] }

// span is one timed call into a layer. Times are nanoseconds since the
// tracer's epoch; spans of one instance share op, and parent names the
// span whose call caused this one (0 for a root). A traced sim-mix pass
// keeps millions of spans, so the struct stays at 32 bytes.
type span struct {
	start, end int64
	id, parent uint32
	op         int32 // op index, -1 outside any op
	kind       spanKind
}

func (s span) dur() time.Duration { return time.Duration(s.end - s.start) }

// computeSpan is one Automaton.Compute call (layer core.compute). Its
// parent is the plane span of its process: plane[proc], or the single
// plane span of a sim or live instance. A traced sim-mix pass records
// millions of these, so they are kept at 16 bytes.
type computeSpan struct {
	start int64
	dur   uint32 // nanoseconds
	proc  uint16
}

func (c computeSpan) end() int64 { return c.start + int64(c.dur) }

// selfTime returns the part of parent's interval that none of children
// covers: its duration minus the union of the children's intervals,
// each clipped to the parent. Overlapping children (concurrent processes
// of one live instance) are counted once.
func selfTime(parent span, children []computeSpan) time.Duration {
	type iv struct{ a, b int64 }
	ivs := make([]iv, 0, len(children))
	for _, c := range children {
		a, b := max(c.start, parent.start), min(c.end(), parent.end)
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var covered, curA, curB int64
	open := false
	for _, v := range ivs {
		switch {
		case !open:
			curA, curB, open = v.a, v.b, true
		case v.a <= curB:
			curB = max(curB, v.b)
		default:
			covered += curB - curA
			curA, curB = v.a, v.b
		}
	}
	if open {
		covered += curB - curA
	}
	return parent.dur() - time.Duration(covered)
}

// instTrace is everything the tracing transport recorded for one
// instance.
type instTrace struct {
	op         int
	run        span   // transport.run
	plane      []span // sim.run or anonnet.run (one), tcpnet.run (one per process)
	computes   []computeSpan
	rounds     int   // rounds the instance took (max over processes on live planes)
	procRounds []int // rounds per process (tcpnet only, matching plane)
	interval   time.Duration
	sim        sim.Metrics
	// envs holds, per process, the round envelopes reconstructed by the
	// automaton wrapper (mux workload only; see tracedAut.capture).
	envs [][]giraf.Envelope
}

// tracer keeps spans in memory; nothing is written until the run ends.
type tracer struct {
	base   time.Time
	nextID atomic.Uint32

	mu    sync.Mutex
	insts []*instTrace
	dials []span
}

func newTracer() *tracer { return &tracer{base: time.Now()} }

func (t *tracer) now() int64 { return int64(time.Since(t.base)) }

func (t *tracer) id() uint32 { return t.nextID.Add(1) }

// begin opens a span; the caller sets end.
func (t *tracer) begin(kind spanKind, parent uint32, op int) span {
	return span{id: t.id(), parent: parent, op: int32(op), kind: kind, start: t.now()}
}

func (t *tracer) add(it *instTrace) {
	t.mu.Lock()
	t.insts = append(t.insts, it)
	t.mu.Unlock()
}

// reset drops the instances recorded so far; dial spans stay, since
// set-up happens once per transport.
func (t *tracer) reset() {
	t.mu.Lock()
	t.insts = nil
	t.mu.Unlock()
}

func (t *tracer) addDial(s span) {
	t.mu.Lock()
	t.dials = append(t.dials, s)
	t.mu.Unlock()
}

// opIndex recovers the op index from an instance ID made by opID.
func opIndex(id string) int {
	i, err := strconv.Atoi(id[strings.LastIndexByte(id, '-')+1:])
	if err != nil {
		return -1
	}
	return i
}

// tracedAut wraps process proc's automaton to time Compute. The inbox is
// handed to the inner automaton unchanged: ES's run-shared memo
// type-asserts it, so a wrapper that hid it would change the run.
type tracedAut struct {
	inner giraf.Automaton
	tr    *tracer
	proc  int
	spans []computeSpan
	// capture, when set, records the envelope each end-of-round
	// broadcasts, rebuilt from outside: the round-(k+1) payloads received
	// so far plus the payload Compute returned. The round-1 envelope
	// carries only the initial payload (Initialize sees no inbox).
	capture bool
	envs    []giraf.Envelope
}

func (a *tracedAut) Initialize() giraf.Payload {
	p := a.inner.Initialize()
	if a.capture {
		a.envs = append(a.envs, giraf.Envelope{Round: 1, Payloads: []giraf.Payload{p}})
	}
	return p
}

func (a *tracedAut) Compute(k int, inbox giraf.Inbox) (giraf.Payload, giraf.Decision) {
	start := a.tr.now()
	p, d := a.inner.Compute(k, inbox)
	a.spans = append(a.spans, computeSpan{start: start, dur: uint32(a.tr.now() - start), proc: uint16(a.proc)})
	if a.capture && !d.Decided {
		a.envs = append(a.envs, rebuildEnvelope(k+1, inbox.Round(k+1), p))
	}
	return p, d
}

// rebuildEnvelope returns the envelope ⟨received ∪ {own}, round⟩ in
// canonical key order, as EndOfRound would broadcast it.
func rebuildEnvelope(round int, received []giraf.Payload, own giraf.Payload) giraf.Envelope {
	pays := make([]giraf.Payload, 0, len(received)+1)
	pays = append(pays, received...)
	key := own.PayloadKey()
	dup := false
	for _, r := range received {
		if r.PayloadKey() == key {
			dup = true
			break
		}
	}
	if !dup {
		pays = append(pays, own)
	}
	sort.Slice(pays, func(i, j int) bool { return pays[i].PayloadKey() < pays[j].PayloadKey() })
	return giraf.Envelope{Round: round, Payloads: pays}
}

// writeSpans writes every span as one tab-separated line (id, parent,
// op, layer, start ns, end ns) to a gzip file.
func (t *tracer) writeSpans(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	zw, _ := gzip.NewWriterLevel(f, gzip.BestSpeed)
	bw := bufio.NewWriter(zw)
	write := func(s span) {
		fmt.Fprintf(bw, "%d\t%d\t%d\t%s\t%d\t%d\n", s.id, s.parent, s.op, s.kind, s.start, s.end)
	}
	for _, s := range t.dials {
		write(s)
	}
	for _, it := range t.insts {
		write(it.run)
		for _, s := range it.plane {
			write(s)
		}
		for _, c := range it.computes {
			parent := it.plane[min(int(c.proc), len(it.plane)-1)]
			write(span{start: c.start, end: c.end(), id: t.id(), parent: parent.id, op: parent.op, kind: spanCompute})
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	if err := zw.Close(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
