package main

import (
	"time"

	ac "anonconsensus"
)

// workloads returns the benchmark's workloads by name. BENCHMARK.json
// gives the reason for each; LAYERS.md maps their layers to metrics.
func workloads() map[string]*workload {
	// sim-mix: CPU-bound consensus with no timers, wire or hub.
	simMix := &workload{
		name:    "sim-mix",
		closed:  true,
		clients: 1,
		limit:   250 * time.Millisecond,
		// A closed loop issues each op the moment its client is free,
		// so its generator cannot lag; the bound is never approached.
		lagBound: 50 * time.Millisecond,
		options:  []ac.Option{ac.WithMaxInFlight(1)},
		classes: []class{
			{name: "es-4", env: ac.EnvES, n: 4, weight: 30, gstMin: 2, gstMax: 8, crashP: 0.15, dupP: 0.15, crashLo: 1, crashHi: 6},
			{name: "es-16", env: ac.EnvES, n: 16, weight: 15, gstMin: 2, gstMax: 8, crashP: 0.15, dupP: 0.15, crashLo: 1, crashHi: 6},
			{name: "es-64", env: ac.EnvES, n: 64, weight: 5, gstMin: 2, gstMax: 8, crashP: 0.15, dupP: 0.15, crashLo: 1, crashHi: 6},
			{name: "ess-4", env: ac.EnvESS, n: 4, weight: 30, gstMin: 2, gstMax: 8, crashP: 0.15, dupP: 0.15, crashLo: 1, crashHi: 6},
			{name: "ess-16", env: ac.EnvESS, n: 16, weight: 20, gstMin: 2, gstMax: 8, crashP: 0.15, dupP: 0.15, crashLo: 1, crashHi: 6},
		},
		// One client and one worker leave the second vCPU to the Go
		// runtime and the host: with both busy, the CPU-bound metrics
		// followed the host's load and spread ~0.2 between runs.
		//
		// The set-up instance uses the largest n so that set-up time is
		// the simulator's work (~0.3 ms) rather than goroutine wake-ups
		// (tens of µs, which swung ±40% between runs). The host runs it
		// at one of two speeds (~0.21 or ~0.33 ms) that alternate every
		// 0.1–2 s; 6001 set-ups (~2 s) sample enough of both that the
		// median no longer jumps between them from run to run.
		warm:      warmOp(ac.EnvES, 64),
		setupReps: 6001,
		transport: ac.NewSimTransport,
	}
	simMix.traced = func(tr *tracer) ac.Transport { return &tracedSim{tr: tr} }

	// live-burst: bursty open loop on the in-process live plane.
	liveInterval := 2 * time.Millisecond
	liveBurst := &workload{
		name:     "live-burst",
		rate:     210,
		shape:    0.5,
		limit:    150 * time.Millisecond,
		lagBound: 40 * time.Millisecond,
		options: []ac.Option{
			ac.WithInterval(liveInterval),
			ac.WithMaxInFlight(16),
			// Deep enough that Propose never blocks at this rate.
			ac.WithQueueDepth(1 << 14),
			ac.WithTimeout(10 * time.Second),
		},
		classes: []class{
			{name: "es-5", env: ac.EnvES, n: 5, weight: 3, gstMin: 2, gstMax: 4, crashP: 0.10, crashLo: 2, crashHi: 5},
			{name: "ess-4", env: ac.EnvESS, n: 4, weight: 1, gstMin: 2, gstMax: 4, crashP: 0.10, crashLo: 2, crashHi: 5},
		},
		// A live set-up (~8 ms) waits on round timers and wake-ups,
		// and nine of them left the median ±10% from run to run.
		warm:      warmOp(ac.EnvES, 5),
		setupReps: 31,
		transport: ac.NewLiveTransport,
	}
	liveBurst.traced = func(tr *tracer) ac.Transport { return &tracedLive{tr: tr} }

	// mux-steady: Poisson open loop on the multiplexed TCP plane.
	muxInterval := 4 * time.Millisecond
	muxSteady := &workload{
		name:     "mux-steady",
		rate:     150,
		shape:    1,
		limit:    250 * time.Millisecond,
		lagBound: 40 * time.Millisecond,
		options: []ac.Option{
			ac.WithInterval(muxInterval),
			ac.WithMaxInFlight(16),
			ac.WithQueueDepth(1 << 14),
			ac.WithTimeout(10 * time.Second),
		},
		classes: []class{
			{name: "es-4", env: ac.EnvES, n: 4, weight: 4, gstMin: 1, gstMax: 3, crashP: 0.10, crashLo: 2, crashHi: 5},
			{name: "ess-3", env: ac.EnvESS, n: 3, weight: 3, gstMin: 1, gstMax: 3, crashP: 0.10, crashLo: 2, crashHi: 5},
			{name: "es-1", env: ac.EnvES, n: 1, weight: 3, gstMin: 1, gstMax: 1},
		},
		// The warm-up uses the largest n, so set-up dials every slot.
		// About two set-ups in three take one extra pacing escape (~32
		// ms; see LAYERS.md), so the median needs enough repetitions to
		// land in that mode every run.
		warm:      warmOp(ac.EnvES, 4),
		setupReps: 51,
		transport: ac.NewTCPMuxTransport,
	}
	muxSteady.traced = func(tr *tracer) ac.Transport { return &tracedMux{tr: tr, capture: true} }

	return map[string]*workload{simMix.name: simMix, liveBurst.name: liveBurst, muxSteady.name: muxSteady}
}

// warmOp is the fixed set-up instance: n equal proposals, synchronous
// from round 1 (GST 1). Every process then hears every peer each round
// and decides in the same round, so none waits out the pacing escape
// for a halted peer, and set-up time does not flip between two modes.
func warmOp(e ac.Environment, n int) op {
	o := op{index: -1, class: "warm", env: e, n: n, gst: 1, seed: 1}
	for i := 0; i < n; i++ {
		o.proposals = append(o.proposals, ac.NumValue(1))
	}
	return o
}
