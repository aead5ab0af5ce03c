package main

import (
	"fmt"
	"math"
	"math/rand/v2"
	"time"

	ac "anonconsensus"
)

// op is one generated consensus instance: its inputs and, for an open
// loop, when it is due.
type op struct {
	index     int
	due       time.Duration // offset from the run start (open loop only)
	class     string
	n         int
	env       ac.Environment
	gst       int
	seed      int64
	source    int         // stable source (ESS only)
	crash     map[int]int // nil, or one process and its crash round
	dupPct    int
	proposals []ac.Value
}

// opID names op i of a pass; the prefix keeps the IDs of one pass from
// meeting those of another on the same Node.
func opID(prefix string, i int) string { return fmt.Sprintf("%s-%d", prefix, i) }

// options returns the per-instance Node options that carry the op.
func (o op) options() []ac.Option {
	opts := []ac.Option{ac.WithEnv(o.env), ac.WithGST(o.gst), ac.WithSeed(o.seed)}
	if o.env == ac.EnvESS {
		opts = append(opts, ac.WithStableSource(o.source))
	}
	if o.crash != nil {
		opts = append(opts, ac.WithCrashes(o.crash))
	}
	if o.dupPct > 0 {
		opts = append(opts, ac.WithDuplication(o.dupPct))
	}
	return opts
}

// splitmix64 derives independent per-op streams from the run seed, so op
// i is the same whatever ops were drawn before it.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// opRand returns op i's private generator.
func opRand(seed int64, i int) *rand.Rand {
	return rand.New(rand.NewPCG(uint64(seed), splitmix64(uint64(i))))
}

// arrivalRand returns the generator of the arrival process.
func arrivalRand(seed int64) *rand.Rand {
	return rand.New(rand.NewPCG(uint64(seed), 0xa771a1))
}

// class is one kind of op in a workload's mix.
type class struct {
	name    string
	env     ac.Environment
	n       int
	weight  int
	gstMin  int // GST drawn uniformly from [gstMin, gstMax]
	gstMax  int
	crashP  float64 // share of ops with one crash
	dupP    float64 // share of ops with 10% duplication
	crashLo int     // crash round drawn from [crashLo, crashHi]
	crashHi int
}

// pick draws a class by weight.
func pick(r *rand.Rand, classes []class) class {
	total := 0
	for _, c := range classes {
		total += c.weight
	}
	x := r.IntN(total)
	for _, c := range classes {
		if x < c.weight {
			return c
		}
		x -= c.weight
	}
	panic("unreachable")
}

// makeOp draws op i of a workload with the given mix.
func makeOp(seed int64, i int, classes []class) op {
	r := opRand(seed, i)
	c := pick(r, classes)
	o := op{
		index: i,
		class: c.name,
		n:     c.n,
		env:   c.env,
		gst:   c.gstMin + r.IntN(c.gstMax-c.gstMin+1),
		seed:  r.Int64(),
	}
	if c.env == ac.EnvESS {
		o.source = r.IntN(c.n)
	}
	// Half the ops propose n distinct values, half only two: distinct
	// proposals make the value sets the automata merge grow with n.
	o.proposals = make([]ac.Value, c.n)
	distinct := r.IntN(2) == 0
	for p := range o.proposals {
		v := int64(1 + p)
		if !distinct {
			v = int64(1 + r.IntN(2))
		}
		o.proposals[p] = ac.NumValue(v)
	}
	if c.n > 1 && r.Float64() < c.crashP {
		pid := r.IntN(c.n)
		if c.env == ac.EnvESS && pid == o.source {
			pid = (pid + 1) % c.n // the stable source must stay correct
		}
		o.crash = map[int]int{pid: c.crashLo + r.IntN(c.crashHi-c.crashLo+1)}
	}
	if r.Float64() < c.dupP {
		o.dupPct = 10
	}
	return o
}

// gamma draws a Gamma(shape, 1) variate (Marsaglia–Tsang; shapes below 1
// use the U^(1/shape) boost).
func gamma(r *rand.Rand, shape float64) float64 {
	if shape < 1 {
		return gamma(r, shape+1) * math.Pow(r.Float64(), 1/shape)
	}
	d := shape - 1.0/3
	c := 1 / math.Sqrt(9*d)
	for {
		x := r.NormFloat64()
		v := 1 + c*x
		if v <= 0 {
			continue
		}
		v = v * v * v
		u := r.Float64()
		if u < 1-0.0331*x*x*x*x || math.Log(u) < 0.5*x*x+d*(1-v+math.Log(v)) {
			return d * v
		}
	}
}

// schedule returns the open-loop arrivals for a run of the given length:
// rate × length arrivals whose gaps are Gamma(shape) draws (shape 1 is
// Poisson; below 1 is burstier), scaled so that one more gap would end
// the run. Fixing the count keeps the offered load the same for every
// seed, so goodput compares across seeds; the seed still decides the
// burst pattern and the ops.
func schedule(seed int64, rate, shape float64, length time.Duration, classes []class) []op {
	r := arrivalRand(seed)
	n := int(math.Round(rate * length.Seconds()))
	at := make([]float64, n+1)
	var t float64
	for i := range at {
		t += gamma(r, shape)
		at[i] = t
	}
	ops := make([]op, n)
	for i := range ops {
		ops[i] = makeOp(seed, i, classes)
		ops[i].due = time.Duration(at[i] / at[n] * float64(length))
	}
	return ops
}
