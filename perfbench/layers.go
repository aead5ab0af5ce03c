package main

import (
	"time"

	"anonconsensus/internal/tcpnet"
)

// metric is one reported figure.
type metric struct {
	name, unit string
	value      float64
}

// endToEnd derives the user-visible metrics of an untraced pass.
func endToEnd(w *workload, r *runResult, setup []float64, rss float64) []metric {
	ok := r.ok()
	var lat sample
	good := 0
	for _, i := range ok {
		l := r.outs[i].latency()
		lat = append(lat, ms(l))
		if l <= w.limit {
			good++
		}
	}
	s := lat.sorted()
	okN := float64(len(ok))
	return []metric{
		{"decide_p50_ms", "ms", percentile(s, 50)},
		{"decide_p99_ms", "ms", percentile(s, 99)},
		{"goodput_dps", "1/s", float64(good) / r.elapsed.Seconds()},
		{"ok_frac", "ratio", ratio(okN, float64(len(r.outs)))},
		{"cpu_us_per_decision", "us", ratio(us(r.cpu), okN)},
		{"alloc_kb_per_decision", "KiB", ratio(float64(r.allocs)/1024, okN)},
		{"max_rss_mb", "MiB", rss / (1 << 20)},
		{"setup_s", "s", median(setup)},
	}
}

// muxCounters are the tcpnet counters read before and after a traced
// mux pass.
type muxCounters struct {
	hub   tcpnet.HubStats
	slots tcpnet.MuxStats
	n     int
}

// layerInputs is everything the per-layer metrics are derived from.
type layerInputs struct {
	untraced, trcd *runResult
	tr             *tracer
	mux0, mux1     *muxCounters // nil off the mux plane
	wire           *wireStats   // nil off the mux plane
}

// perLayer derives the per-layer metrics. Spans come from the traced
// pass; the runtime and generator figures come from the untraced pass,
// which is the one the end-to-end metrics describe. A layer a workload
// does not reach reports zero.
func perLayer(in layerInputs) []metric {
	r, tr := in.trcd, in.tr
	okSet := map[int]bool{}
	for _, i := range r.ok() {
		okSet[i] = true
	}
	okN := float64(len(okSet))
	off := r.start.Sub(tr.base) // run-relative time + off = tracer time

	var propose, queue, complete sample
	for i := range okSet {
		o := &r.outs[i]
		propose = append(propose, us(o.returned-o.issued))
	}
	var runMS, excessMS sample
	var runSum, timerSum time.Duration
	var rounds float64
	var simRun, simSelf sample
	var deliveries, broadcasts, skipped, payloadBytes float64
	var compute sample
	var computeSum time.Duration
	var anRun, anExcess sample
	var anRounds float64
	var tcpRun, tcpExcess, straggler sample
	for _, it := range tr.insts {
		if !okSet[it.op] {
			continue
		}
		o := &r.outs[it.op]
		queue = append(queue, ms(time.Duration(it.run.start)-off-o.returned))
		complete = append(complete, us(o.observed-(time.Duration(it.run.end)-off)))
		timer := time.Duration(it.rounds) * it.interval
		runMS = append(runMS, ms(it.run.dur()))
		excessMS = append(excessMS, ms(it.run.dur()-timer))
		runSum += it.run.dur()
		timerSum += timer
		rounds += float64(it.rounds)
		for _, c := range it.computes {
			d := time.Duration(c.dur)
			compute = append(compute, us(d))
			computeSum += d
		}
		for k, p := range it.plane {
			switch p.kind {
			case spanSim:
				simRun = append(simRun, us(p.dur()))
				simSelf = append(simSelf, us(selfTime(p, it.computes)))
			case spanAnonnet:
				anRun = append(anRun, ms(p.dur()))
				anExcess = append(anExcess, ms(p.dur()-timer))
				anRounds += float64(it.rounds)
			case spanTCP:
				tcpRun = append(tcpRun, ms(p.dur()))
				tcpExcess = append(tcpExcess, ms(p.dur()-time.Duration(it.procRounds[k])*it.interval))
			}
		}
		if len(it.plane) > 1 {
			var d sample
			for _, p := range it.plane {
				d = append(d, ms(p.dur()))
			}
			s := d.sorted()
			straggler = append(straggler, s[len(s)-1]-percentile(s, 50))
		}
		deliveries += float64(it.sim.Deliveries)
		broadcasts += float64(it.sim.Broadcasts)
		skipped += float64(it.sim.MergesSkipped)
		payloadBytes += float64(it.sim.PayloadBytes)
	}
	var dial sample
	for _, d := range tr.dials {
		dial = append(dial, ms(d.dur()))
	}

	var frames, unknown, drops, reconnects, unknownFrac float64
	if in.mux0 != nil {
		frames = float64(in.mux1.hub.RetiredFrames - in.mux0.hub.RetiredFrames)
		unknown = float64(in.mux1.slots.UnknownEpochFrames - in.mux0.slots.UnknownEpochFrames)
		drops = float64(in.mux1.slots.InboxDrops - in.mux0.slots.InboxDrops)
		reconnects = float64(in.mux1.slots.Reconnects - in.mux0.slots.Reconnects)
		// The hub relays every frame to every other slot, whichever
		// epochs that slot has registered.
		unknownFrac = ratio(unknown, frames*float64(in.mux1.n-1))
	}
	var ws wireStats
	if in.wire != nil {
		ws = *in.wire
	}

	u := in.untraced
	uOK := float64(len(u.ok()))
	return []metric{
		{"node.propose_us_p50", "us", propose.p(50)},
		{"node.propose_us_p99", "us", propose.p(99)},
		{"node.queue_ms_p50", "ms", queue.p(50)},
		{"node.queue_ms_p99", "ms", queue.p(99)},
		{"node.complete_us_p50", "us", complete.p(50)},
		{"node.peak_in_flight", "count", float64(r.node.PeakInFlight)},
		{"node.events_dropped", "count", float64(r.node.EventsDropped)},

		{"transport.run_ms_p50", "ms", runMS.p(50)},
		{"transport.run_ms_p99", "ms", runMS.p(99)},
		{"transport.rounds_per_decision", "count", ratio(rounds, okN)},
		{"transport.timer_frac", "ratio", ratio(float64(timerSum), float64(runSum))},
		{"transport.excess_ms_p50", "ms", excessMS.p(50)},
		{"transport.excess_ms_p99", "ms", excessMS.p(99)},

		{"sim.run_us_p50", "us", simRun.p(50)},
		{"sim.run_us_p99", "us", simRun.p(99)},
		{"sim.self_us_p50", "us", simSelf.p(50)},
		{"sim.deliveries_per_decision", "count", ratio(deliveries, okN)},
		{"sim.broadcasts_per_decision", "count", ratio(broadcasts, okN)},
		{"sim.merge_skip_frac", "ratio", ratio(skipped, deliveries)},
		{"sim.payload_kb_per_decision", "KiB", ratio(payloadBytes/1024, okN)},

		{"core.compute_us_p50", "us", compute.p(50)},
		{"core.compute_us_p99", "us", compute.p(99)},
		{"core.computes_per_decision", "count", ratio(float64(len(compute)), okN)},
		{"core.compute_share", "ratio", ratio(float64(computeSum), float64(runSum))},

		{"anonnet.run_ms_p50", "ms", anRun.p(50)},
		{"anonnet.run_ms_p99", "ms", anRun.p(99)},
		{"anonnet.excess_ms_p50", "ms", anExcess.p(50)},
		{"anonnet.excess_ms_p99", "ms", anExcess.p(99)},
		{"anonnet.rounds_per_decision", "count", ratio(anRounds, okN)},

		{"tcpnet.run_ms_p50", "ms", tcpRun.p(50)},
		{"tcpnet.run_ms_p99", "ms", tcpRun.p(99)},
		{"tcpnet.straggler_ms_p50", "ms", straggler.p(50)},
		{"tcpnet.straggler_ms_p99", "ms", straggler.p(99)},
		{"tcpnet.excess_ms_p50", "ms", tcpExcess.p(50)},
		{"tcpnet.excess_ms_p99", "ms", tcpExcess.p(99)},
		{"tcpnet.frames_per_decision", "count", ratio(frames, okN)},
		{"tcpnet.unknown_epoch_frac", "ratio", unknownFrac},
		{"tcpnet.inbox_drops", "count", drops},
		{"tcpnet.reconnects", "count", reconnects},
		{"tcpnet.dial_ms", "ms", dial.p(50)},

		{"wire.encode_ns_per_frame", "ns", ratio(float64(ws.encode), float64(ws.frames))},
		{"wire.decode_ns_per_frame", "ns", ratio(float64(ws.decode), float64(ws.frames))},
		{"wire.bytes_per_frame", "B", ratio(float64(ws.bytes), float64(ws.frames))},
		{"wire.ref_frac", "ratio", ratio(float64(ws.refs), float64(ws.payloads))},

		{"runtime.gc_cpu_frac", "ratio", ratio(u.rt.gcCPU, u.rt.liveCPU)},
		{"runtime.gc_per_kdecision", "count", ratio(1000*float64(u.rt.gcCycles), uOK)},
		{"runtime.heap_peak_mb", "MiB", float64(u.rt.heapPeak) / (1 << 20)},
		{"runtime.goroutines_peak", "count", float64(u.rt.goroutinesPeak)},

		{"harness.gen_lag_p99_ms", "ms", u.genLag().p(99)},
		{"harness.trace_overhead_frac", "ratio", ratio(ratio(us(r.cpu), okN), ratio(us(u.cpu), uOK)) - 1},
	}
}
