package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"
	"time"

	ac "anonconsensus"
	"anonconsensus/internal/core"
	"anonconsensus/internal/giraf"
	"anonconsensus/internal/values"
)

func TestScheduleSameSeedSameOps(t *testing.T) {
	for name, w := range workloads() {
		if w.closed {
			continue
		}
		a := schedule(7, w.rate, w.shape, 3*time.Second, w.classes)
		b := schedule(7, w.rate, w.shape, 3*time.Second, w.classes)
		if len(a) == 0 || !reflect.DeepEqual(a, b) {
			t.Errorf("%s: seed 7 gave two different schedules (%d and %d ops)", name, len(a), len(b))
		}
		if c := schedule(8, w.rate, w.shape, 3*time.Second, w.classes); reflect.DeepEqual(a, c) {
			t.Errorf("%s: seeds 7 and 8 gave the same schedule", name)
		}
	}
}

// A closed loop draws ops by index in whatever order its clients get to
// them; op i must not depend on that order.
func TestOpDependsOnlyOnSeedAndIndex(t *testing.T) {
	classes := workloads()["sim-mix"].classes
	late := makeOp(3, 41, classes)
	for i := 0; i < 41; i++ {
		makeOp(3, i, classes)
	}
	if again := makeOp(3, 41, classes); !reflect.DeepEqual(late, again) {
		t.Fatalf("op 41 changed after drawing ops 0–40: %+v vs %+v", late, again)
	}
}

func TestScheduleFixesArrivalCount(t *testing.T) {
	cls := []class{{name: "c", env: ac.EnvES, n: 1, weight: 1, gstMin: 1, gstMax: 1}}
	for _, shape := range []float64{0.5, 1} {
		for seed := int64(1); seed <= 3; seed++ {
			ops := schedule(seed, 100, shape, 20*time.Second, cls)
			if len(ops) != 2000 {
				t.Fatalf("shape %g seed %d: %d arrivals, want 2000", shape, seed, len(ops))
			}
			for i := 1; i < len(ops); i++ {
				if ops[i].due < ops[i-1].due {
					t.Fatalf("shape %g seed %d: arrival %d before %d", shape, seed, i, i-1)
				}
			}
			if last := ops[len(ops)-1].due; last >= 20*time.Second || last < 19*time.Second {
				t.Fatalf("shape %g seed %d: last arrival at %v", shape, seed, last)
			}
		}
	}
}

// Gamma(0.5) gaps are burstier than Poisson: their squared coefficient
// of variation is 1/shape.
func TestGammaShape(t *testing.T) {
	r := arrivalRand(1)
	for _, shape := range []float64{0.5, 1, 2} {
		var sum, sq float64
		const n = 200000
		for i := 0; i < n; i++ {
			x := gamma(r, shape)
			sum += x
			sq += x * x
		}
		mean := sum / n
		cv2 := (sq/n - mean*mean) / (mean * mean)
		if math.Abs(mean-shape) > 0.02*shape || math.Abs(cv2-1/shape) > 0.05/shape {
			t.Errorf("Gamma(%g): mean %.3f, CV² %.3f; want %g and %g", shape, mean, cv2, shape, 1/shape)
		}
	}
}

func TestClassMixHonorsConstraints(t *testing.T) {
	for name, w := range workloads() {
		for i := 0; i < 2000; i++ {
			o := makeOp(5, i, w.classes)
			if len(o.proposals) != o.n {
				t.Fatalf("%s op %d: %d proposals for n=%d", name, i, len(o.proposals), o.n)
			}
			if o.env == ac.EnvESS && o.n > 16 {
				t.Fatalf("%s op %d: ESS with n=%d", name, i, o.n)
			}
			for pid, round := range o.crash {
				if round < 1 || pid < 0 || pid >= o.n || (o.env == ac.EnvESS && pid == o.source) {
					t.Fatalf("%s op %d: bad crash %d@%d (source %d)", name, i, pid, round, o.source)
				}
			}
		}
	}
}

func TestNearestRankPercentile(t *testing.T) {
	s := sample{5, 1, 4, 2, 3, 10, 9, 8, 7, 6}.sorted()
	for _, c := range []struct {
		p    float64
		want float64
	}{{10, 1}, {11, 2}, {50, 5}, {90, 9}, {91, 10}, {99, 10}, {100, 10}} {
		if got := percentile(s, c.p); got != c.want {
			t.Errorf("p%g of 1..10 = %g, want %g", c.p, got, c.want)
		}
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("p50 of nothing = %g", got)
	}
}

func TestHighestTailKeepsTenBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{
		{10000, 99.9}, // rank 9990: 10 beyond
		{9999, 99.5},  // p99.9 would leave 9
		{1000, 99},    // rank 990: 10 beyond
		{999, 98},     // p99 would leave 9
		{20, 50},
		{19, 0},
	} {
		if got := highestTail(c.n); got != c.want {
			t.Errorf("highestTail(%d) = p%g, want p%g", c.n, got, c.want)
		}
		if p := highestTail(c.n); p > 0 && beyond(c.n, p) < minBeyond {
			t.Errorf("n=%d: p%g has only %d beyond", c.n, p, beyond(c.n, p))
		}
	}
}

func TestSelfTimeSubtractsCoveredChildTime(t *testing.T) {
	parent := span{start: 0, end: 100}
	sp := func(a, b int64) computeSpan { return computeSpan{start: a, dur: uint32(b - a)} }
	for _, c := range []struct {
		children []computeSpan
		want     time.Duration
	}{
		{nil, 100},
		{[]computeSpan{sp(10, 20), sp(30, 40)}, 80},
		// Overlapping children count once; parts outside the parent not at all.
		{[]computeSpan{sp(10, 20), sp(15, 30), sp(50, 60), sp(90, 120), sp(-5, 5), sp(200, 300)}, 55},
		{[]computeSpan{sp(-10, 200)}, 0},
		{[]computeSpan{sp(20, 20)}, 100},
	} {
		if got := selfTime(parent, c.children); got != c.want {
			t.Errorf("selfTime with %v = %v, want %v", c.children, got, c.want)
		}
	}
}

func TestCheckGate(t *testing.T) {
	props := []ac.Value{"a", "b"}
	dec := func(v ac.Value, crashed bool) ac.Decision {
		return ac.Decision{Decided: v != "", Value: v, Crashed: crashed}
	}
	res := func(ds ...ac.Decision) *ac.Result { return &ac.Result{Decisions: ds} }

	// A process that decided and then crashed still binds agreement,
	// though Result.Agreed skips it.
	split := res(dec("a", false), dec("b", true))
	if _, ok := split.Agreed(); !ok {
		t.Fatal("expected Result.Agreed to skip the crashed process")
	}
	for _, c := range []struct {
		name string
		res  *ac.Result
		err  error
		want verdict
	}{
		{"agree", res(dec("a", false), dec("a", false)), nil, verdictOK},
		{"crashed undecided", res(dec("b", false), dec("", true)), nil, verdictOK},
		{"decided then crashed, differently", split, nil, verdictDisagree},
		{"not proposed", res(dec("c", false), dec("c", false)), nil, verdictInvalid},
		{"correct process undecided", res(dec("a", false), dec("", false)), nil, verdictUndecided},
		{"nobody decided", res(dec("", true), dec("", false)), nil, verdictUndecided},
		{"shed", nil, fmt.Errorf("propose: %w", ac.ErrOverloaded), verdictShed},
		{"error", nil, context.DeadlineExceeded, verdictError},
	} {
		if got := check(props, c.res, c.err); got != c.want {
			t.Errorf("%s: verdict %s, want %s", c.name, got, c.want)
		}
	}
}

// inboxProbe records the dynamic type of every inbox it is handed.
type inboxProbe struct {
	giraf.Automaton
	seen *[]string
}

func (p inboxProbe) Compute(k int, inbox giraf.Inbox) (giraf.Payload, giraf.Decision) {
	*p.seen = append(*p.seen, fmt.Sprintf("%T", inbox))
	return p.Automaton.Compute(k, inbox)
}

func TestTracedAutomatonPassesInboxThrough(t *testing.T) {
	var seen []string
	tr := newTracer()
	auts := make([]*tracedAut, 3)
	procs := make([]*giraf.Proc, 3)
	for i := range procs {
		auts[i] = &tracedAut{inner: inboxProbe{core.NewES(values.Num(int64(i + 1))), &seen}, tr: tr}
		procs[i] = giraf.NewProc(auts[i])
	}
	for round := 0; round < 3; round++ {
		for _, p := range procs {
			if env, ok := p.EndOfRound(); ok {
				for _, q := range procs {
					q.Receive(env)
				}
			}
		}
	}
	if len(seen) == 0 {
		t.Fatal("Compute never ran")
	}
	for _, s := range seen {
		if s != "*giraf.Proc" {
			t.Fatalf("inner automaton saw inbox %s, want the framework's *giraf.Proc", s)
		}
	}
	if n := len(auts[0].spans); n == 0 {
		t.Fatal("no core.compute spans recorded")
	}
}

// The tracing sim transport must reproduce the adapter's results
// instance by instance.
func TestTracedSimMatchesAdapter(t *testing.T) {
	w := workloads()["sim-mix"]
	tr := newTracer()
	plain, err := ac.NewNode(ac.NewSimTransport())
	if err != nil {
		t.Fatal(err)
	}
	defer plain.Close()
	traced, err := ac.NewNode(&tracedSim{tr: tr})
	if err != nil {
		t.Fatal(err)
	}
	defer traced.Close()
	ctx := context.Background()
	for i := 0; i < 60; i++ {
		o := makeOp(9, i, w.classes)
		a, errA := plain.Run(ctx, opID("op", i), o.proposals, o.options()...)
		b, errB := traced.Run(ctx, opID("op", i), o.proposals, o.options()...)
		if errA != nil || errB != nil {
			t.Fatalf("op %d: %v / %v", i, errA, errB)
		}
		if digest(a) != digest(b) {
			t.Fatalf("op %d (%s): traced result %+v, adapter %+v", i, o.class, b, a)
		}
		if v := check(o.proposals, a, nil); v != verdictOK {
			t.Fatalf("op %d (%s): %s", i, o.class, v)
		}
	}
	if len(tr.insts) != 60 {
		t.Fatalf("%d instances traced, want 60", len(tr.insts))
	}
}

func TestWirePassRoundTrips(t *testing.T) {
	p := func(vs ...int64) giraf.Payload {
		s := values.NewSet()
		for _, v := range vs {
			s.Add(values.Num(v))
		}
		return core.SetPayload{Proposed: s}
	}
	// Round 2 repeats round 1's payload, so it should travel as a
	// reference.
	envs := []giraf.Envelope{
		rebuildEnvelope(1, nil, p(1)),
		rebuildEnvelope(2, []giraf.Payload{p(2)}, p(1)),
		rebuildEnvelope(3, []giraf.Payload{p(1, 2)}, p(1, 2)),
	}
	if len(envs[2].Payloads) != 1 {
		t.Fatalf("rebuilt envelope kept a duplicate of its own payload: %d payloads", len(envs[2].Payloads))
	}
	st, err := wirePass([]*instTrace{{envs: [][]giraf.Envelope{envs}}})
	if err != nil {
		t.Fatal(err)
	}
	if st.frames != 3 || st.refs != 1 || st.payloads != 4 || st.bytes == 0 {
		t.Fatalf("wire pass: %+v", st)
	}
}

func TestUsageErrors(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "nope"},
		{"--workload", "sim-mix", "--trace", "2"},
		{"--workload", "sim-mix", "--seconds", "0"},
		{"--bogus"},
	} {
		var out, errw bytes.Buffer
		if code := run(args, t.TempDir(), &out, &errw); code != exitUsage {
			t.Errorf("%v: exit %d, want %d", args, code, exitUsage)
		}
		if out.Len() != 0 {
			t.Errorf("%v printed a result: %q", args, out.String())
		}
	}
}

// TestTracedRunEmitsEveryLayerMetric runs sim-mix end to end for a
// second in both modes and checks the result line.
func TestTracedRunEmitsEveryLayerMetric(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the benchmark for two seconds")
	}
	for _, trace := range []string{"0", "1"} {
		var out, errw bytes.Buffer
		args := []string{"--workload", "sim-mix", "--seed", "3", "--seconds", "1", "--trace", trace}
		if code := run(args, t.TempDir(), &out, &errw); code != exitOK {
			t.Fatalf("trace %s: exit %d: %s", trace, code, errw.String())
		}
		lines := strings.Split(strings.TrimSpace(out.String()), "\n")
		var res struct {
			Correct           bool
			Attempted, Failed int
			Metrics           map[string]struct {
				Value float64
				Unit  string
			}
		}
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
			t.Fatalf("trace %s: last line is not the result: %v", trace, err)
		}
		if !res.Correct || res.Attempted < 1 || res.Failed != 0 {
			t.Fatalf("trace %s: %+v", trace, res)
		}
		var want []metric
		if trace == "0" {
			want = endToEnd(&workload{}, &runResult{}, nil, 0)
		} else {
			want = perLayer(layerInputs{untraced: &runResult{}, trcd: &runResult{}, tr: newTracer()})
		}
		if len(res.Metrics) != len(want) {
			t.Errorf("trace %s: %d metrics, want %d", trace, len(res.Metrics), len(want))
		}
		for _, m := range want {
			if got, ok := res.Metrics[m.name]; !ok || got.Unit != m.unit {
				t.Errorf("trace %s: metric %s missing or unit %q", trace, m.name, got.Unit)
			}
		}
		if trace == "1" && res.Metrics["core.computes_per_decision"].Value <= 0 {
			t.Errorf("traced sim-mix recorded no core.compute spans")
		}
	}
}
