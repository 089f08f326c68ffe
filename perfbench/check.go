package main

import (
	"fmt"
	"math"
	"runtime"
	"sync"

	"repro/internal/core"
)

// tolerance is the agreement required between a served measure and the
// in-process reference, for one-shot answers and for a stream session's
// final profile against a cold solve of the same environment.
const tolerance = 1e-10

// expectation is the reference MPH/TDH/TMA of one environment.
type expectation struct {
	tasks, machines int
	mph, tdh, tma   float64
	tmaOK           bool
}

func expectationOf(p *core.Profile) expectation {
	return expectation{
		tasks: p.Tasks, machines: p.Machines,
		mph: p.MPH, tdh: p.TDH, tma: p.TMA, tmaOK: p.TMAErr == nil,
	}
}

// expectAll characterizes every environment of a plan in-process, fanned
// out over the CPUs. It runs before any server starts, so none of it is
// timed.
func expectAll(specs []envSpec) []expectation {
	out := make([]expectation, len(specs))
	parallelFor(len(specs), func(i int) {
		out[i] = expectationOf(core.Characterize(specs[i].build().etcmat()))
	})
	return out
}

func parallelFor(n int, f func(i int)) {
	var wg sync.WaitGroup
	workers := runtime.NumCPU()
	next := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				f(i)
			}
		}()
	}
	for i := 0; i < n; i++ {
		next <- i
	}
	close(next)
	wg.Wait()
}

func withinTolerance(a, b float64) bool {
	return math.Abs(a-b) <= tolerance*math.Max(1, math.Abs(b))
}

// mismatch describes how an answer departs from its expectation, or "" if
// it matches.
func (e expectation) mismatch(tasks, machines int, mph, tdh, tma float64, tmaOK bool) string {
	switch {
	case tasks != e.tasks || machines != e.machines:
		return fmt.Sprintf("shape %dx%d, want %dx%d", tasks, machines, e.tasks, e.machines)
	case !withinTolerance(mph, e.mph):
		return fmt.Sprintf("MPH %.17g, want %.17g", mph, e.mph)
	case !withinTolerance(tdh, e.tdh):
		return fmt.Sprintf("TDH %.17g, want %.17g", tdh, e.tdh)
	case tmaOK != e.tmaOK:
		return fmt.Sprintf("TMA valid %v, want %v", tmaOK, e.tmaOK)
	case e.tmaOK && !withinTolerance(tma, e.tma):
		return fmt.Sprintf("TMA %.17g, want %.17g", tma, e.tma)
	}
	return ""
}

// checker collects wrong answers. Every answer for an environment must
// match the reference, and every answer for the same environment must be
// bit-identical to the first one seen, whatever its body or Accept type.
type checker struct {
	exp    []expectation
	first  map[int]uint64
	wrong  int
	detail []string
}

func newChecker(exp []expectation) *checker {
	return &checker{exp: exp, first: make(map[int]uint64)}
}

// check records an answer for environment env and reports whether
// it is right.
func (c *checker) check(env int, a answer) bool {
	msg := c.exp[env].mismatch(a.tasks, a.machines, a.mph, a.tdh, a.tma, a.tmaOK)
	if msg == "" {
		if d, ok := c.first[env]; !ok {
			c.first[env] = a.digest
		} else if d != a.digest {
			msg = "answer differs bitwise from an earlier answer for the same environment"
		}
	}
	if msg != "" {
		c.fail(fmt.Sprintf("env %d: %s", env, msg))
		return false
	}
	return true
}

func (c *checker) fail(msg string) {
	c.wrong++
	if len(c.detail) < 5 {
		c.detail = append(c.detail, msg)
	}
}

// checkSamples checks every answered sample after a run, marking the wrong
// ones failed.
func (c *checker) checkSamples(ss []sample) {
	for i := range ss {
		if ss[i].ok && ss[i].hasAns && !c.check(ss[i].env, ss[i].ans) {
			ss[i].ok = false
			ss[i].err = "wrong answer"
		}
	}
}
