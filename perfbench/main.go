// Command perfbench is the repository benchmark: it drives a Node over
// one of three named workloads, checks every outcome, and prints the
// end-to-end metrics or, with --trace 1, the per-layer metrics derived
// from a second, traced pass over the same seeded workload.
//
// Run it from the module root (perfbench/run.sh builds and runs it):
//
//	go run ./perfbench --workload mux-steady --seed 1 --seconds 10 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. The exit code is 0 only when
// every op met the correctness gate and the generator kept to its
// schedule.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	ac "anonconsensus"
)

func main() { os.Exit(run(os.Args[1:], ".bench_build", os.Stdout, os.Stderr)) }

// Exit codes.
const (
	exitOK        = 0
	exitViolation = 1 // an op broke agreement or validity, or diverged when traced
	exitUsage     = 2
	exitInvalid   = 3 // the run could not apply its load, or could not finish
)

// run runs the benchmark; a traced pass writes its spans into spansDir.
func run(args []string, spansDir string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: sim-mix, live-burst or mux-steady")
	seed := fs.Int64("seed", 1, "seed of the generated inputs")
	seconds := fs.Int("seconds", 10, "measured time per run, in seconds (split between the two passes with --trace 1)")
	trace := fs.Int("trace", 0, "1: add a traced pass and print the per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return exitUsage
	}
	all := workloads()
	w, ok := all[*name]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		names := make([]string, 0, len(all))
		for n := range all {
			names = append(names, n)
		}
		sort.Strings(names)
		fmt.Fprintf(stderr, "perfbench: need --workload one of %s, --seconds ≥ 1, --trace 0|1\n", strings.Join(names, ", "))
		return exitUsage
	}
	// A traced run measures two passes in the time an untraced run
	// measures one, so every run costs the same.
	length := time.Duration(*seconds) * time.Second
	if *trace == 1 {
		length /= 2
	}
	ctx := context.Background()

	// Untraced pass: set up several times, to report the median, and
	// measure on the last node set up. Half of the set-ups run after the
	// measured pass: the host's speed shifts over seconds, and a single
	// sub-second window of set-ups caught one speed, so the median
	// flipped between two modes from run to run.
	reps := w.setupReps
	if *trace == 1 {
		reps = 1
	}
	var setup []float64
	node, err := setUps(ctx, w, (reps+1)/2, &setup)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return exitInvalid
	}
	var tr *tracer
	var tt ac.Transport
	if *trace == 1 {
		tr = newTracer()
		tt = w.traced(tr)
	}
	// The traced sim pass is compared with this one, result by result.
	_, simCheck := tt.(*tracedSim)
	warmBad, err := warmUp(ctx, w, node, *seed)
	var un *runResult
	if err == nil {
		un, err = measure(ctx, w, node, pass{prefix: "op", seed: *seed, length: length, sample: *trace == 1, digests: simCheck})
	}
	node.Close()
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", w.name, err)
		return exitInvalid
	}
	rss := maxRSS()
	if reps > 1 {
		node, err = setUps(ctx, w, reps/2, &setup)
		if err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return exitInvalid
		}
		node.Close()
	}
	e2e := endToEnd(w, un, setup, rss)
	report(stdout, w, "untraced", un, e2e)
	bad := append(warmBad, un.violations()...)
	correct := len(bad) == 0
	for _, v := range bad {
		fmt.Fprintln(stdout, "VIOLATION", v)
	}
	if lag := un.genLag().p(99); lag > ms(w.lagBound) {
		fmt.Fprintf(stderr, "perfbench: invalid run: generator lag p99 %.2f ms exceeds the %v bound; the load applied was not the load scheduled\n", lag, w.lagBound)
		return exitInvalid
	}
	attempted, failed := len(un.outs), un.failed()
	out := e2e

	if *trace == 1 {
		node, _, err := setUp(ctx, w, tt)
		if err != nil {
			fmt.Fprintln(stderr, "perfbench: traced", err)
			return exitInvalid
		}
		mux, _ := tt.(*tracedMux)
		var mux0, mux1 *muxCounters
		warmBad, err := warmUp(ctx, w, node, *seed)
		var trcd *runResult
		if err == nil {
			tr.reset() // keep only the measured pass's instances
			if mux != nil {
				mux0 = readMux(mux)
			}
			trcd, err = measure(ctx, w, node, pass{prefix: "op", seed: *seed, length: length, digests: simCheck})
			if mux != nil {
				mux1 = readMux(mux)
			}
		}
		node.Close()
		if err != nil {
			fmt.Fprintf(stderr, "perfbench: traced %s: %v\n", w.name, err)
			return exitInvalid
		}
		if simCheck {
			matchSim(un, trcd, stdout)
		}
		for _, v := range append(warmBad, trcd.violations()...) {
			fmt.Fprintln(stdout, "VIOLATION (traced)", v)
			correct = false
		}
		in := layerInputs{untraced: un, trcd: trcd, tr: tr, mux0: mux0, mux1: mux1}
		if mux != nil {
			ws, err := wirePass(tr.insts)
			if err != nil {
				fmt.Fprintln(stdout, "VIOLATION", err)
				correct = false
			}
			in.wire = &ws
		}
		if err := tr.writeSpans(filepath.Join(spansDir, "spans-"+w.name+".tsv.gz")); err != nil {
			fmt.Fprintln(stderr, "perfbench: writing spans:", err)
		}
		out = perLayer(in)
		report(stdout, w, "traced", trcd, out)
		attempted += len(trcd.outs)
		failed += trcd.failed()
	}

	res := map[string]any{
		"correct":   correct,
		"attempted": attempted,
		"failed":    failed,
		"metrics":   jsonMetrics(out),
	}
	line, _ := json.Marshal(res)
	fmt.Fprintln(stdout, string(line))
	if !correct {
		return exitViolation
	}
	return exitOK
}

// setUps sets up reps Nodes one after another, closing all but the last,
// which it returns, and appends each set-up time to times.
func setUps(ctx context.Context, w *workload, reps int, times *[]float64) (*ac.Node, error) {
	var node *ac.Node
	for i := 0; i < reps; i++ {
		if node != nil {
			node.Close()
		}
		var d time.Duration
		var err error
		if node, d, err = setUp(ctx, w, w.transport()); err != nil {
			return nil, err
		}
		*times = append(*times, d.Seconds())
	}
	return node, nil
}

// warmup is how long a pass runs the workload, on another seed, before
// it measures, so that the Go heap, the transport's pools and the host's
// CPU clock have settled: the first second of a cold pass runs ~25%
// slower than the rest.
const warmup = 3 * time.Second

// warmUp runs the workload unmeasured on node. Its ops are checked like
// measured ones; their violations are returned.
func warmUp(ctx context.Context, w *workload, node *ac.Node, seed int64) ([]string, error) {
	warm, err := measure(ctx, w, node, pass{prefix: "warm", seed: seed ^ 0x5eed, length: warmup})
	if err != nil {
		return nil, fmt.Errorf("warm-up: %w", err)
	}
	return warm.violations(), nil
}

func readMux(m *tracedMux) *muxCounters {
	hs, ms, n := m.stats()
	return &muxCounters{hub: hs, slots: ms, n: n}
}

// matchSim marks every sim-mix op whose traced result differs from its
// untraced result. The simulator is deterministic in the spec, so the
// tracing transport must reproduce every instance exactly; ops only one
// pass reached are not compared.
func matchSim(un, trcd *runResult, w io.Writer) {
	compared := 0
	for i := range trcd.outs {
		if i >= len(un.outs) {
			break
		}
		a, b := un.outs[i].digest, trcd.outs[i].digest
		if a == 0 || b == 0 {
			continue
		}
		compared++
		if a != b {
			trcd.outs[i].verdict = verdictDiverged
			trcd.outs[i].detail = fmt.Sprintf("%s (%s): traced result differs from the untraced one", opID(trcd.pass.prefix, i), trcd.outs[i].class)
		}
	}
	fmt.Fprintf(w, "sim-mix: %d instances compared traced against untraced\n", compared)
}

func jsonMetrics(ms []metric) map[string]any {
	out := make(map[string]any, len(ms))
	for _, m := range ms {
		out[m.name] = map[string]any{"value": m.value, "unit": m.unit}
	}
	return out
}

// report prints a pass's summary and metrics for people; the JSON line
// follows at the end.
func report(w io.Writer, wl *workload, pass string, r *runResult, metrics []metric) {
	fmt.Fprintf(w, "%s %s: %d ops attempted, %d ok, elapsed %.2fs, limit %v\n",
		wl.name, pass, len(r.outs), len(r.ok()), r.elapsed.Seconds(), wl.limit)
	fails := r.failures()
	for _, v := range sortedVerdicts(fails) {
		fmt.Fprintf(w, "  failed %-10s %d\n", v, fails[v])
	}
	byClass := map[string]sample{}
	for _, i := range r.ok() {
		c := r.outs[i].class
		byClass[c] = append(byClass[c], ms(r.outs[i].latency()))
	}
	for _, c := range wl.classes {
		s := byClass[c.name]
		fmt.Fprintf(w, "  class %-8s %6d ok, decide ms p25 %8.3f p50 %8.3f p75 %8.3f p99 %8.3f max %8.3f\n", c.name, len(s), s.p(25), s.p(50), s.p(75), s.p(99), s.p(100))
	}
	n := len(r.ok())
	fmt.Fprintf(w, "  samples %d, beyond p99 %d, highest percentile with ≥%d beyond: p%g\n", n, beyond(n, 99), minBeyond, highestTail(n))
	for _, m := range metrics {
		fmt.Fprintf(w, "  %-32s %14.4f %s\n", m.name, m.value, m.unit)
	}
}
