// Command anonlive runs anonymous consensus over a live in-process network
// (one goroutine per process, broadcast into per-receiver deadline queues
// with per-link latencies) and narrates each instance's outcome as it
// completes.
//
// Usage:
//
//	anonlive -n 5 -env ess -gst 6 -source 2 -interval 5ms
//	anonlive -n 8 -env es -crash 0:2 -crash 3:5
//	anonlive -n 5 -instances 3        # several instances over one session
//	anonlive -instances 20 -inflight 8 -admit 50:10   # service mode
//
// -inflight widens the session's worker pool so several instances run
// concurrently; -admit rate:burst puts a token bucket in front of
// Propose — shed instances are reported, not fatal — and the session's
// occupancy and admission counters are printed on shutdown.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"anonconsensus"
)

// crashFlags collects repeated -crash pid:round flags.
type crashFlags map[int]int

func (c crashFlags) String() string { return fmt.Sprint(map[int]int(c)) }

func (c crashFlags) Set(s string) error {
	parts := strings.SplitN(s, ":", 2)
	if len(parts) != 2 {
		return fmt.Errorf("want pid:round, got %q", s)
	}
	pid, err := strconv.Atoi(parts[0])
	if err != nil {
		return fmt.Errorf("bad pid in %q: %w", s, err)
	}
	round, err := strconv.Atoi(parts[1])
	if err != nil {
		return fmt.Errorf("bad round in %q: %w", s, err)
	}
	c[pid] = round
	return nil
}

// parseAdmit parses an -admit rate:burst flag value ("" = disabled).
func parseAdmit(s string) (rate float64, burst int, err error) {
	if s == "" {
		return 0, 0, nil
	}
	parts := strings.SplitN(s, ":", 2)
	if len(parts) != 2 {
		return 0, 0, fmt.Errorf("want rate:burst, got %q", s)
	}
	rate, err = strconv.ParseFloat(parts[0], 64)
	if err != nil || rate <= 0 {
		return 0, 0, fmt.Errorf("bad rate in %q (want a positive number)", s)
	}
	burst, err = strconv.Atoi(parts[1])
	if err != nil || burst < 1 {
		return 0, 0, fmt.Errorf("bad burst in %q (want a positive integer)", s)
	}
	return rate, burst, nil
}

func main() {
	var (
		n         = flag.Int("n", 5, "number of anonymous processes")
		env       = flag.String("env", "es", "environment: es or ess")
		gst       = flag.Int("gst", 6, "stabilization round")
		source    = flag.Int("source", 0, "eventual stable source (ess only)")
		seed      = flag.Int64("seed", 1, "adversary seed")
		interval  = flag.Duration("interval", 5*time.Millisecond, "round timer period")
		timeout   = flag.Duration("timeout", 30*time.Second, "per-instance timeout")
		instances = flag.Int("instances", 1, "number of consensus instances to run over the session")
		inflight  = flag.Int("inflight", 1, "max concurrently running instances (worker pool width)")
		admit     = flag.String("admit", "", "admission token bucket as rate:burst (e.g. 50:10; empty = no admission control)")
		crashes   = crashFlags{}
	)
	flag.Var(crashes, "crash", "crash schedule pid:round (repeatable)")
	flag.Parse()

	if err := run(*n, *env, *gst, *source, *seed, *interval, *timeout, *instances, *inflight, *admit, crashes); err != nil {
		fmt.Fprintln(os.Stderr, "anonlive:", err)
		os.Exit(1)
	}
}

func run(n int, envName string, gst, source int, seed int64, interval, timeout time.Duration, instances, inflight int, admit string, crashes crashFlags) error {
	env, err := anonconsensus.ParseEnvironment(envName)
	if err != nil {
		return err
	}
	if instances < 1 {
		return fmt.Errorf("need at least 1 instance, got %d", instances)
	}
	opts := []anonconsensus.Option{
		anonconsensus.WithEnv(env),
		anonconsensus.WithGST(gst),
		anonconsensus.WithStableSource(source),
		anonconsensus.WithSeed(seed),
		anonconsensus.WithCrashes(crashes),
		anonconsensus.WithInterval(interval),
		anonconsensus.WithTimeout(timeout),
	}
	if inflight > 1 {
		opts = append(opts, anonconsensus.WithMaxInFlight(inflight))
	}
	rate, burst, err := parseAdmit(admit)
	if err != nil {
		return fmt.Errorf("-admit: %w", err)
	}
	if rate > 0 {
		opts = append(opts, anonconsensus.WithAdmission(rate, burst))
	}

	node, err := anonconsensus.NewNode(anonconsensus.NewLiveTransport(), opts...)
	if err != nil {
		return err
	}
	defer node.Close()

	fmt.Printf("session: %d anonymous processes in %s over the %s transport (GST=%d, seed=%d, interval=%s)\n",
		n, env, node.Transport().Name(), gst, seed, interval)
	for pid, r := range crashes {
		fmt.Printf("  process %d will crash after round %d\n", pid, r)
	}

	// Enqueue every instance up front; the node runs them in Propose order
	// (up to -inflight at a time). Under -admit, a shed instance is an
	// expected operator-visible outcome, not a failure. The Decisions feed
	// narrates (best-effort by design), while Wait is the authoritative
	// per-instance outcome the exit status hangs on.
	ctx := context.Background()
	var ids []string
	for k := 0; k < instances; k++ {
		proposals := make([]anonconsensus.Value, n)
		for i := range proposals {
			proposals[i] = anonconsensus.NumValue(int64(100*(k+1) + i))
		}
		id := fmt.Sprintf("instance-%d", k+1)
		if err := node.Propose(ctx, id, proposals); err != nil {
			if errors.Is(err, anonconsensus.ErrOverloaded) {
				fmt.Printf("== %s shed: %v ==\n", id, err)
				continue
			}
			return err
		}
		ids = append(ids, id)
	}

	printerDone := make(chan struct{})
	go func() {
		defer close(printerDone)
		for ev := range node.Decisions() {
			switch ev.Kind {
			case anonconsensus.EventInstanceStarted:
				fmt.Printf("== %s started ==\n", ev.Instance)
			case anonconsensus.EventDecision:
				fmt.Printf("  p%-2d decided %s in round %d\n", ev.Decision.Proc, ev.Decision.Value, ev.Decision.Round)
			}
		}
	}()

	for _, id := range ids {
		res, err := node.Wait(ctx, id)
		if err != nil {
			return err
		}
		for _, d := range res.Decisions {
			switch {
			case d.Crashed:
				fmt.Printf("  p%-2d crashed\n", d.Proc)
			case !d.Decided:
				fmt.Printf("  p%-2d undecided at timeout\n", d.Proc)
			}
		}
		v, ok := res.Agreed()
		if !ok {
			return fmt.Errorf("%s: no consensus within %s", id, timeout)
		}
		fmt.Printf("== %s: consensus on %s in %s ==\n", id, v, res.Elapsed.Round(time.Millisecond))
	}
	// Close terminates the feed; joining the printer keeps the last
	// instance's narration from being lost at process exit.
	node.Close()
	<-printerDone
	s := node.Stats()
	fmt.Printf("session stats: admitted=%d rejected=%d completed=%d peak-in-flight=%d/%d queue-wait=%s events-dropped=%d\n",
		s.Admitted, s.Rejected, s.Completed, s.PeakInFlight, s.MaxInFlight,
		s.QueueWait.Round(time.Millisecond), s.EventsDropped)
	return nil
}
