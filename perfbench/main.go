// Command perfbench is the repository's benchmark: it builds nothing itself
// (run.sh builds hcserved and this driver from the checkout), spawns
// hcserved nodes with their default settings as child processes, drives one
// workload against them from this single process with at most one request
// in flight per CPU, checks every answer against an in-process reference,
// and prints the end-to-end metrics as the last line of standard output.
// With -trace 1 it instead runs the traced pass and prints the per-layer
// metrics. See README.md for the workloads, metrics and layers.
//
// Usage (from the repository root):
//
//	bash perfbench/run.sh --workload hot_reads --seed 1 --seconds 10 --trace 0
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

func main() { os.Exit(run()) }

func run() int {
	workloadName := flag.String("workload", "", "workload: hot_reads, cold_solves, stream_edits or cluster_hop")
	seed := flag.Uint64("seed", 1, "seed of every generated input")
	seconds := flag.Float64("seconds", 10, "measured seconds of one run")
	trace := flag.Int("trace", 0, "1 runs the traced per-layer pass instead of the end-to-end one")
	hcserved := flag.String("hcserved", "", "hcserved binary built from this checkout")
	workdir := flag.String("workdir", "", "directory for node logs")
	root := flag.String("root", ".", "repository root, for the host record")
	flag.Parse()

	w := workloadByName(*workloadName)
	if w == nil {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", *workloadName)
		return 2
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: -seconds must be positive and -trace 0 or 1")
		return 2
	}
	if st, err := os.Stat(*hcserved); err != nil || st.IsDir() {
		fmt.Fprintf(os.Stderr, "perfbench: -hcserved %q is not a binary\n", *hcserved)
		return 2
	}
	if *workdir == "" {
		fmt.Fprintln(os.Stderr, "perfbench: -workdir is required")
		return 2
	}
	cfg := runConfig{
		hcserved: *hcserved, workdir: *workdir, root: *root,
		seed: *seed, seconds: *seconds, workers: runtime.NumCPU(), trace: *trace == 1,
	}
	var (
		res *result
		err error
	)
	if cfg.trace {
		res, err = traceRun(w, cfg)
	} else {
		res, err = endToEnd(w, cfg)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", w.name, err)
		return 1
	}
	rec := hostRecord(cfg, w, res)
	out, _ := json.Marshal(map[string]any{"host": rec, "notes": res.notes})
	fmt.Println(string(out))
	out, err = json.Marshal(res.final())
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: encoding the result: %v\n", err)
		return 1
	}
	fmt.Println(string(out))
	return 0
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is one run's outcome. attempted and failed count every operation
// sent, set-up passes included; a wrong answer is a failed operation.
type result struct {
	correct           bool
	attempted, failed int
	metrics           map[string]metric
	notes             map[string]any
	serverGOMAXPROCS  int
	serverGoVersion   string
	failures          []string // the first few failure reasons
}

func (r *result) set(name string, v float64, unit string) {
	r.metrics[name] = metric{Value: v, Unit: unit}
}

func (r *result) note(k string, v any) { r.notes[k] = v }

func (r *result) final() map[string]any {
	return map[string]any{
		"correct":   r.correct,
		"attempted": r.attempted,
		"failed":    r.failed,
		"metrics":   r.metrics,
	}
}

func newResult() *result {
	return &result{correct: true, metrics: map[string]metric{}, notes: map[string]any{}}
}

// endToEnd runs the rounds and reports setup_s, p50_ms, p99_ms, ops_per_s
// and peak_rss_mb.
func endToEnd(w *workload, cfg runConfig) (*result, error) {
	t0 := time.Now()
	p, chk, err := prepareRun(w, cfg)
	if err != nil {
		return nil, err
	}
	res := newResult()
	res.note("reference_s", time.Since(t0).Seconds())
	steal0, total0 := cpuTimes()
	var (
		setups, rss, rates, lateP99 []float64
		roundRates                  []float64
		timed                       []sample
		breaks                      []string
		panics                      int
	)
	for k := 0; k < rounds; k++ {
		r, err := openRound(w, cfg, p, k, res)
		if err != nil {
			return nil, err
		}
		var open []sample
		if w.rate > 0 {
			list := p.open[k]
			open = openLoop(cfg.workers, w.rate, len(list), func(i int) sample { return r.shot(list[i]) })
		}
		dur := time.Duration(cfg.seconds * closedShare * float64(time.Second))
		if w.rate == 0 {
			dur = time.Duration(cfg.seconds / rounds * float64(time.Second))
			lo, hi := k*len(p.sessions)/rounds, (k+1)*len(p.sessions)/rounds
			r.streams.reset(p.sessions[lo:hi], len(p.warmSessions)+lo, cfg.workers)
		}
		closed, el := r.closedPhase(dur)
		b, err := r.finish()
		if err != nil {
			return nil, err
		}
		// Checked before anything reads them, so a wrong answer is a failed
		// operation everywhere: in the counts, the rates and the latencies.
		checkAndCount(res, chk, r.samples)
		checkAndCount(res, chk, open)
		checkAndCount(res, chk, closed)
		rr := closedRates(closed, el)
		rates = append(rates, rr...)
		roundRates = append(roundRates, median(rr))
		if w.rate > 0 {
			timed = append(timed, open...)
			lateP99 = append(lateP99, summarize(open).lateP99)
		} else {
			timed = append(timed, closed...)
		}
		breaks = append(breaks, b...)
		panics += r.panics
		setups = append(setups, r.setup.Seconds())
		rss = append(rss, r.rssMB)
	}
	st := summarize(timed)
	if st.windows == 0 {
		return nil, fmt.Errorf("only %d timed samples: p99 needs at least %d", st.n, p99Window)
	}
	steal1, total1 := cpuTimes()
	res.set("setup_s", median(setups), "s")
	res.set("p50_ms", st.p50, "ms")
	res.set("p99_ms", st.p99, "ms")
	res.set("ops_per_s", median(rates), "1/s")
	res.set("peak_rss_mb", median(rss), "MB")
	finishChecks(res, chk, breaks, panics)
	res.note("cpu_steal_share", ratio(steal1-steal0, total1-total0))
	res.note("setup_s_rounds", setups)
	res.note("ops_per_s_bins", len(rates))
	res.note("ops_per_s_rounds", roundRates)
	res.note("ops_per_s_bin_range", []float64{percentile(rates, 0), percentile(rates, 1)})
	res.note("peak_rss_mb_rounds", rss)
	res.note("timed_samples", st.n)
	res.note("p99_ms_windows", st.p99s)
	if len(lateP99) > 0 {
		res.note("late_ms_p99", maxOf(lateP99))
	}
	return res, nil
}

// prepareRun builds the plan and every expectation before any server
// starts. The checker holds one reference per environment, or for
// stream_edits one per session (warm sessions first): the cold solve of
// its final environment.
func prepareRun(w *workload, cfg runConfig) (*plan, *checker, error) {
	p := w.plan(w, cfg)
	exp := expectAll(p.specs)
	if len(p.sessions)+len(p.warmSessions) > 0 {
		var err error
		if exp, err = sessionExpectations(p); err != nil {
			return nil, nil, err
		}
	}
	if err := os.MkdirAll(cfg.workdir, 0o755); err != nil {
		return nil, nil, err
	}
	// The expectations used every CPU; from here on the generator keeps to
	// one, so its own threads contend as little as possible with the
	// server's for the CPUs they share.
	runtime.GOMAXPROCS(1)
	return p, newChecker(exp), nil
}

// openRound prepares and starts round k.
func openRound(w *workload, cfg runConfig, p *plan, k int, res *result) (*round, error) {
	r := &round{index: k, cfg: cfg, w: w, p: p, hc: newHTTPClient(cfg.workers)}
	var shots []shot
	if w.clustered {
		shots = r.roundShots()
	}
	if err := r.prepare(shots); err != nil {
		return nil, err
	}
	dir := logDir(cfg, k)
	if err := os.RemoveAll(dir); err != nil {
		return nil, err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	if err := r.start(dir); err != nil {
		stopNodes(r.nodes)
		return nil, err
	}
	if res.serverGoVersion == "" {
		if h, err := r.nodes[0].health(r.hc); err == nil {
			res.serverGOMAXPROCS, res.serverGoVersion = h.Workers, h.GoVersion
		}
	}
	return r, nil
}

// checkAndCount checks the answers of ss in place, marking a wrong one
// failed, then counts every sample as attempted and every failed one as
// failed. One-shot answers are checked against their environment's
// reference, stream closes against their session's final environment.
func checkAndCount(res *result, c *checker, ss []sample) {
	c.checkSamples(ss)
	for _, s := range ss {
		res.attempted++
		if !s.ok {
			res.failed++
			if len(res.failures) < 5 {
				res.failures = append(res.failures, s.err)
			}
		}
	}
}

func finishChecks(res *result, chk *checker, breaks []string, panics int) {
	wrong, detail := chk.wrong, chk.detail
	res.correct = wrong == 0 && len(breaks) == 0
	res.note("wrong_answers", wrong)
	if len(detail) > 0 {
		res.note("wrong_answer_examples", detail)
	}
	res.note("accounting_breaks", breaks)
	res.note("failure_examples", res.failures)
	res.note("server_panic_log_lines", panics)
}

func maxOf(xs []float64) float64 {
	m := xs[0]
	for _, x := range xs[1:] {
		if x > m {
			m = x
		}
	}
	return m
}

// hostRecord is what a result needs to be compared with another: the CPU
// count, both sides' GOMAXPROCS, Go versions, the code measured, the seed
// and the offered rate.
func hostRecord(cfg runConfig, w *workload, res *result) map[string]any {
	rec := map[string]any{
		"workload":             w.name,
		"nproc":                runtime.NumCPU(),
		"generator_gomaxprocs": runtime.GOMAXPROCS(0),
		"server_gomaxprocs":    res.serverGOMAXPROCS,
		"generator_go":         runtime.Version(),
		"server_go":            res.serverGoVersion,
		"in_flight":            cfg.workers,
		"rounds":               rounds,
		"seed":                 cfg.seed,
		"seconds":              cfg.seconds,
		"trace":                cfg.trace,
		"commit":               commitOf(cfg.root),
		"source_sha256":        sourceDigest(cfg.root),
	}
	if w.rate > 0 {
		rec["offered_rate_per_s"] = w.rate
	} else {
		rec["offered_rate_per_s"] = "closed loop only"
	}
	return rec
}

// commitOf names the commit when the checkout is a git work tree.
func commitOf(root string) string {
	out, err := exec.Command("git", "-C", root, "rev-parse", "HEAD").Output()
	if err != nil {
		return "unknown (not a git checkout)"
	}
	return strings.TrimSpace(string(out))
}

// sourceDigest hashes the program's Go sources and module file, so a result
// names the code it measured even outside a git checkout.
func sourceDigest(root string) string {
	var files []string
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		name := d.Name()
		if d.IsDir() {
			if path != root && (strings.HasPrefix(name, ".") || name == "perfbench") {
				return filepath.SkipDir
			}
			return nil
		}
		if strings.HasSuffix(name, ".go") || name == "go.mod" {
			files = append(files, path)
		}
		return nil
	})
	if err != nil {
		return "unknown"
	}
	sort.Strings(files)
	h := sha256.New()
	for _, f := range files {
		data, err := os.ReadFile(f)
		if err != nil {
			return "unknown"
		}
		rel, _ := filepath.Rel(root, f)
		fmt.Fprintf(h, "%s\x00%d\x00", rel, len(data))
		h.Write(data)
	}
	return hex.EncodeToString(h.Sum(nil))
}
