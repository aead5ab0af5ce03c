package main

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	ac "anonconsensus"
	"anonconsensus/internal/anonnet"
	"anonconsensus/internal/core"
	"anonconsensus/internal/env"
	"anonconsensus/internal/giraf"
	"anonconsensus/internal/sim"
	"anonconsensus/internal/tcpnet"
	"anonconsensus/internal/values"
)

// The tracing transports below stand in for the library's built-in
// adapters during a traced run. Each calls the same layer entry points
// with the same arguments as the adapter it replaces, and records a span
// around each call. Specs arrive validated: Node validates every spec
// before handing it to its transport.

func toValues(in []ac.Value) []values.Value {
	out := make([]values.Value, len(in))
	for i, v := range in {
		out[i] = values.Value(v)
	}
	return out
}

// newAutomaton builds process i's automaton as the library's adapters
// do for the live planes.
func newAutomaton(e ac.Environment, v values.Value) giraf.Automaton {
	if e == ac.EnvESS {
		return core.NewESS(v)
	}
	return core.NewES(v)
}

// linkFaults mirrors the spec's scenario into the internal fault model,
// or nil for a fault-free spec (crashes ride spec.Crashes).
func linkFaults(spec ac.InstanceSpec) *env.Scenario {
	sc := spec.Scenario
	if sc.LossPct == 0 && sc.DupPct == 0 && len(sc.Partitions) == 0 {
		return nil
	}
	out := &env.Scenario{Seed: spec.Seed, LossPct: sc.LossPct, DupPct: sc.DupPct}
	for _, p := range sc.Partitions {
		out.Partitions = append(out.Partitions, env.Partition{From: p.From, Until: p.Until, Cut: p.Cut})
	}
	return out
}

func orDefault(d, def time.Duration) time.Duration {
	if d > 0 {
		return d
	}
	return def
}

// tracedSim replaces NewSimTransport: core.ConfigES/ConfigESS and
// sim.Engine.RunContext, with an engine free list like the adapter's.
type tracedSim struct {
	tr   *tracer
	mu   sync.Mutex
	free []*sim.Engine
}

func (t *tracedSim) Name() string { return "sim" }
func (t *tracedSim) Close() error { return nil }

func (t *tracedSim) Run(ctx context.Context, spec ac.InstanceSpec) (*ac.Result, error) {
	it := &instTrace{op: opIndex(spec.ID)}
	it.run = t.tr.begin(spanTransport, 0, it.op)
	plane := t.tr.begin(spanSim, it.run.id, it.op)
	var policy sim.Policy
	if spec.Env == ac.EnvESS {
		policy = &sim.ESS{GST: spec.GST, StableSource: spec.StableSource, Pre: sim.MS{Seed: spec.Seed}}
	} else {
		policy = &sim.ES{GST: spec.GST, Pre: sim.MS{Seed: spec.Seed}}
	}
	opts := core.RunOpts{Policy: policy, Crashes: spec.Crashes, Scenario: linkFaults(spec), MaxRounds: spec.MaxRounds}
	var cfg sim.Config
	if spec.Env == ac.EnvESS {
		cfg = core.ConfigESS(toValues(spec.Proposals), opts)
	} else {
		cfg = core.ConfigES(toValues(spec.Proposals), opts)
	}
	auts := make([]*tracedAut, cfg.N)
	inner := cfg.Automaton
	cfg.Automaton = func(i int) giraf.Automaton {
		auts[i] = &tracedAut{inner: inner(i), tr: t.tr, proc: i}
		return auts[i]
	}

	t.mu.Lock()
	var eng *sim.Engine
	if n := len(t.free); n > 0 {
		eng, t.free = t.free[n-1], t.free[:n-1]
	}
	t.mu.Unlock()
	var err error
	if eng == nil {
		eng, err = sim.New(cfg)
	} else {
		err = eng.Reset(cfg)
	}
	if err != nil {
		return nil, err
	}
	plane.start = t.tr.now()
	res, err := eng.RunContext(ctx)
	plane.end = t.tr.now()
	if err != nil {
		return nil, err
	}
	out := &ac.Result{Rounds: res.Rounds}
	for i, st := range res.Statuses {
		out.Decisions = append(out.Decisions, ac.Decision{
			Proc: i, Decided: st.Decided, Value: ac.Value(st.Decision), Round: st.DecidedAt, Crashed: st.Crashed,
		})
	}
	t.mu.Lock()
	t.free = append(t.free, eng)
	t.mu.Unlock()

	it.run.end = t.tr.now()
	it.plane = []span{plane}
	it.rounds = res.Rounds
	it.sim = res.Metrics
	it.computes = joinSpans(auts)
	t.tr.add(it)
	return out, nil
}

// tracedLive replaces NewLiveTransport: anonnet.Run with the ES/ESS
// latency profiles.
type tracedLive struct{ tr *tracer }

func (t *tracedLive) Name() string { return "live" }
func (t *tracedLive) Close() error { return nil }

func (t *tracedLive) Run(ctx context.Context, spec ac.InstanceSpec) (*ac.Result, error) {
	it := &instTrace{op: opIndex(spec.ID)}
	it.run = t.tr.begin(spanTransport, 0, it.op)
	n := spec.N()
	interval := orDefault(spec.Interval, 5*time.Millisecond)
	var latency anonnet.LatencyModel
	if spec.Env == ac.EnvESS {
		latency = anonnet.ESSProfile{N: n, Interval: interval, Seed: spec.Seed, GST: spec.GST, Source: spec.StableSource}
	} else {
		latency = anonnet.ESProfile{N: n, Interval: interval, Seed: spec.Seed, GST: spec.GST}
	}
	plane := t.tr.begin(spanAnonnet, it.run.id, it.op)
	props := toValues(spec.Proposals)
	auts := make([]*tracedAut, n)
	res, err := anonnet.Run(ctx, anonnet.Config{
		N: n,
		Automaton: func(i int) giraf.Automaton {
			auts[i] = &tracedAut{inner: newAutomaton(spec.Env, props[i]), tr: t.tr, proc: i}
			return auts[i]
		},
		Interval:         interval,
		Latency:          latency,
		Timeout:          orDefault(spec.Timeout, 30*time.Second),
		CrashAfterRounds: spec.Crashes,
		Scenario:         linkFaults(spec),
	})
	plane.end = t.tr.now()
	if err != nil {
		return nil, err
	}
	out := &ac.Result{Elapsed: res.Elapsed}
	for i, p := range res.Procs {
		out.Decisions = append(out.Decisions, ac.Decision{
			Proc: i, Decided: p.Decided, Value: ac.Value(p.Decision), Round: p.DecidedRound, Crashed: p.Crashed,
		})
		it.rounds = max(it.rounds, p.Rounds)
	}
	it.run.end = t.tr.now()
	it.plane = []span{plane}
	it.interval = interval
	it.computes = joinSpans(auts)
	t.tr.add(it)
	return out, nil
}

// tracedMux replaces NewTCPMuxTransport: one tcpnet.NewHub, a slot pool
// grown with tcpnet.DialMux, and per instance a fresh epoch that every
// slot Registers before its RunInstance starts and that the hub retires
// (RetireEpoch) after.
type tracedMux struct {
	tr      *tracer
	capture bool // rebuild broadcast envelopes for the wire pass

	mu     sync.Mutex
	hub    *tcpnet.Hub
	slots  []*tcpnet.MuxNode
	epoch  uint64
	closed bool
}

func (t *tracedMux) Name() string { return "tcp-mux" }

func (t *tracedMux) Close() error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.closed {
		return nil
	}
	t.closed = true
	var first error
	for _, m := range t.slots {
		if err := m.Close(); err != nil && first == nil {
			first = err
		}
	}
	if t.hub != nil {
		if err := t.hub.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// muxJitter is the library's FNV-1a mixer for per-slot reconnect jitter
// seeds, so traced slots back off exactly like the adapter's.
func muxJitter(seed int64, conn, serial int) uint64 {
	h := uint64(1469598103934665603) ^ uint64(seed)
	for _, x := range [2]int{conn, serial} {
		h ^= uint64(uint32(x))
		h *= 1099511628211
	}
	h ^= h >> 33
	return h
}

// reconnectPolicy is the adapter's default policy: five attempts, base
// delay max(2·interval, 20ms), capped at one second.
func reconnectPolicy(interval time.Duration, seed int64, slot int) tcpnet.ReconnectPolicy {
	return tcpnet.ReconnectPolicy{
		MaxAttempts: 5,
		BaseDelay:   max(2*interval, 20*time.Millisecond),
		MaxDelay:    time.Second,
		Seed:        int64(muxJitter(seed, slot, 0x5eed)),
	}
}

func (t *tracedMux) lease(ctx context.Context, n int, interval time.Duration, seed int64) ([]*tcpnet.MuxNode, uint64, *tcpnet.Hub, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.closed {
		return nil, 0, nil, errors.New("perfbench: traced tcp-mux transport is closed")
	}
	if t.hub == nil {
		hub, err := tcpnet.NewHub("127.0.0.1:0")
		if err != nil {
			return nil, 0, nil, err
		}
		t.hub = hub
	}
	for len(t.slots) < n {
		s := t.tr.begin(spanDial, 0, -1)
		m, err := tcpnet.DialMux(ctx, tcpnet.MuxConfig{
			HubAddr:   t.hub.Addr(),
			Reconnect: reconnectPolicy(interval, seed, len(t.slots)),
		})
		s.end = t.tr.now()
		if err != nil {
			return nil, 0, nil, fmt.Errorf("perfbench: tcp-mux slot %d: %w", len(t.slots), err)
		}
		t.tr.addDial(s)
		t.slots = append(t.slots, m)
	}
	t.epoch++
	return t.slots[:n:n], t.epoch, t.hub, nil
}

// stats returns the hub's counters and the slots' summed counters.
func (t *tracedMux) stats() (tcpnet.HubStats, tcpnet.MuxStats, int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	var hs tcpnet.HubStats
	if t.hub != nil {
		hs = t.hub.Stats()
	}
	var ms tcpnet.MuxStats
	for _, m := range t.slots {
		s := m.Stats()
		ms.Reconnects += s.Reconnects
		ms.UnknownEpochFrames += s.UnknownEpochFrames
		ms.InboxDrops += s.InboxDrops
	}
	return hs, ms, len(t.slots)
}

func (t *tracedMux) Run(ctx context.Context, spec ac.InstanceSpec) (*ac.Result, error) {
	if linkFaults(spec) != nil {
		return nil, errors.New("perfbench: the tcp-mux plane rejects link faults")
	}
	it := &instTrace{op: opIndex(spec.ID)}
	it.run = t.tr.begin(spanTransport, 0, it.op)
	n := spec.N()
	interval := orDefault(spec.Interval, 10*time.Millisecond)
	slots, epoch, hub, err := t.lease(ctx, n, interval, spec.Seed)
	if err != nil {
		return nil, err
	}
	for i, m := range slots {
		if err := m.Register(epoch); err != nil {
			for _, reg := range slots[:i] {
				reg.Unregister(epoch)
			}
			return nil, err
		}
	}
	defer func() {
		for _, m := range slots {
			m.Unregister(epoch)
		}
		hub.RetireEpoch(epoch)
	}()

	props := toValues(spec.Proposals)
	results := make([]*tcpnet.NodeResult, n)
	errs := make([]error, n)
	planes := make([]span, n)
	auts := make([]*tracedAut, n)
	runCtx, abort := context.WithCancel(ctx)
	defer abort()
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		planes[i] = t.tr.begin(spanTCP, it.run.id, it.op)
		auts[i] = &tracedAut{inner: newAutomaton(spec.Env, props[i]), tr: t.tr, proc: i, capture: t.capture}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			res, err := slots[i].RunInstance(runCtx, epoch, tcpnet.InstanceRun{
				Automaton:        auts[i],
				Interval:         interval,
				Timeout:          orDefault(spec.Timeout, 30*time.Second),
				CrashAfterRounds: spec.Crashes[i],
				Peers:            n,
			})
			planes[i].end = t.tr.now()
			if err != nil && errors.Is(err, tcpnet.ErrHubLost) && res != nil {
				results[i] = res
				return
			}
			results[i], errs[i] = res, err
			if err != nil {
				abort()
			}
		}(i)
	}
	wg.Wait()
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("perfbench: tcp-mux run cancelled: %w", err)
	}
	for i, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("perfbench: tcp-mux node %d: %w", i, err)
		}
	}
	out := &ac.Result{}
	for i, r := range results {
		out.Decisions = append(out.Decisions, ac.Decision{
			Proc: i, Decided: r.Decided, Value: ac.Value(r.Decision), Round: r.Round, Crashed: r.Crashed,
		})
		it.rounds = max(it.rounds, r.Rounds)
		it.procRounds = append(it.procRounds, r.Rounds)
	}
	it.run.end = t.tr.now()
	out.Elapsed = it.run.dur()
	it.plane = planes
	it.interval = interval
	it.computes = joinSpans(auts)
	if t.capture {
		for _, a := range auts {
			it.envs = append(it.envs, a.envs)
		}
	}
	t.tr.add(it)
	return out, nil
}

// joinSpans collects the automata's Compute spans into one exactly-sized
// slice (a process that never started contributes none).
func joinSpans(auts []*tracedAut) []computeSpan {
	n := 0
	for _, a := range auts {
		if a != nil {
			n += len(a.spans)
		}
	}
	out := make([]computeSpan, 0, n)
	for _, a := range auts {
		if a != nil {
			out = append(out, a.spans...)
		}
	}
	return out
}

var (
	_ ac.Transport = (*tracedSim)(nil)
	_ ac.Transport = (*tracedLive)(nil)
	_ ac.Transport = (*tracedMux)(nil)
)
