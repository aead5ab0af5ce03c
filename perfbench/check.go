package main

import (
	"errors"
	"fmt"
	"hash/fnv"

	ac "anonconsensus"
)

// verdict classifies an op's outcome. Every verdict but verdictOK fails
// the op; disagreement and invalid decisions are also safety violations
// that fail the whole run.
type verdict string

const (
	verdictOK        verdict = "ok"
	verdictShed      verdict = "shed"      // Propose refused with ErrOverloaded
	verdictError     verdict = "error"     // Propose or the run returned an error
	verdictUndecided verdict = "undecided" // a correct process did not decide
	verdictDisagree  verdict = "disagree"  // two processes decided differently
	verdictInvalid   verdict = "invalid"   // the decided value was not proposed
	verdictDiverged  verdict = "diverged"  // the traced run decided differently
)

func (v verdict) violation() bool {
	return v == verdictDisagree || v == verdictInvalid || v == verdictDiverged
}

// check applies the correctness gate to one instance's outcome.
//
// Uniform agreement is checked over every process that decided,
// including processes that crashed after deciding; Result.Agreed skips
// crashed processes, so it alone would miss a crashed process that
// decided differently. Termination requires every process that did not
// crash to have decided, and validity requires the decided value to be
// one of the proposals.
func check(proposals []ac.Value, res *ac.Result, err error) verdict {
	if errors.Is(err, ac.ErrOverloaded) {
		return verdictShed
	}
	if err != nil || res == nil {
		return verdictError
	}
	var v ac.Value
	decided := false
	for _, d := range res.Decisions {
		if !d.Decided {
			continue
		}
		if decided && d.Value != v {
			return verdictDisagree
		}
		v, decided = d.Value, true
	}
	if decided {
		valid := false
		for _, p := range proposals {
			if p == v {
				valid = true
				break
			}
		}
		if !valid {
			return verdictInvalid
		}
	}
	for _, d := range res.Decisions {
		if !d.Crashed && !d.Decided {
			return verdictUndecided
		}
	}
	if !decided {
		return verdictUndecided
	}
	return verdictOK
}

// digest hashes what a Result says process by process (decided or not,
// on what value, in which round, crashed or not) and its round count;
// 0 stands for no Result.
func digest(res *ac.Result) uint64 {
	if res == nil {
		return 0
	}
	h := fnv.New64a()
	fmt.Fprintf(h, "%d", res.Rounds)
	for _, d := range res.Decisions {
		fmt.Fprintf(h, "|%d %t %q %d %t", d.Proc, d.Decided, d.Value, d.Round, d.Crashed)
	}
	return h.Sum64() | 1
}
