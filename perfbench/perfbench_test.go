package main

import (
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"testing"
	"time"

	"repro/internal/server"
	"repro/internal/wire"
)

func testConfig(seconds float64) runConfig {
	return runConfig{seed: 7, seconds: seconds, workers: runtime.NumCPU()}
}

// The same seed must give a byte-identical request schedule, and another
// seed a different one.
func TestScheduleDeterministic(t *testing.T) {
	for _, w := range workloads {
		cfg := testConfig(2)
		a := w.plan(w, cfg).scheduleDigest()
		b := w.plan(w, cfg).scheduleDigest()
		if a != b {
			t.Errorf("%s: two plans from seed %d differ", w.name, cfg.seed)
		}
		cfg.seed++
		if c := w.plan(w, cfg).scheduleDigest(); a == c {
			t.Errorf("%s: seeds %d and %d give the same schedule", w.name, cfg.seed-1, cfg.seed)
		}
	}
}

// The class shares are fixed by construction, whatever the seed.
func TestClassShares(t *testing.T) {
	for seed := uint64(1); seed <= 5; seed++ {
		specs := coldSpecs(seed, "cold.test", 8*50)
		for b := 0; b < 50; b++ {
			zeros := 0
			for _, s := range specs[8*b : 8*b+8] {
				if s.Zero {
					zeros++
				}
			}
			if zeros != 1 {
				t.Fatalf("cold seed %d block %d: %d zero-bearing environments, want 1", seed, b, zeros)
			}
		}

		p := clusterPlan(seed, 800, 400)
		for k := range p.open {
			round := append(append([]shot(nil), p.open[k]...), p.closed[k]...)
			cold := 0
			for _, s := range round {
				if p.cold[s.env] {
					cold++
				}
			}
			if want := len(round) / clusterColdEvery; cold != want {
				t.Errorf("cluster seed %d: %d cold keys of %d, want %d", seed, cold, len(round), want)
			}
		}

		shots := zipfShots(rngOf(seed), 1000)
		jsonBodies, binAccept := 0, 0
		for _, s := range shots {
			if s.json {
				jsonBodies++
			}
			if s.binOut {
				binAccept++
			}
		}
		if jsonBodies < 490 || jsonBodies > 510 || binAccept < 490 || binAccept > 510 {
			t.Errorf("hot seed %d: %d JSON bodies and %d binary Accepts of 1000, want about half each",
				seed, jsonBodies, binAccept)
		}

		s := makeSession(seed)
		counts := map[string]int{}
		for _, op := range s.ops {
			counts[op.kind]++
		}
		for _, k := range streamOpMix {
			if counts[k.kind] != k.n {
				t.Errorf("stream seed %d: %d %s ops, want %d", seed, counts[k.kind], k.kind, k.n)
			}
		}
	}
}

// A JSON body and a binary body of the same environment must hash to the
// same content key, or hot_reads would not be all hits.
func TestBodiesShareContentKey(t *testing.T) {
	for r := 0; r < 4; r++ {
		e := hotPlan(3, 10, 10).specs[r].build()
		kj, err := server.DecodeEnvContentKey(e.jsonBody(), "application/json")
		if err != nil {
			t.Fatal(err)
		}
		kb, err := server.DecodeEnvContentKey(e.binBody(), wire.ContentTypeMatrix)
		if err != nil {
			t.Fatal(err)
		}
		if kj != kb {
			t.Fatalf("env %d: JSON and binary bodies have different content keys", r)
		}
	}
}

// A wrong answer must count as a failed operation and leave the latencies
// and completion rates, not only flip the correct flag.
func TestWrongAnswerCountsAsFailed(t *testing.T) {
	specs := coldSpecs(5, "cold.test", 2)
	chk := newChecker(expectAll(specs))
	right := func(env int) answer {
		e := chk.exp[env]
		return answer{tasks: e.tasks, machines: e.machines, mph: e.mph, tdh: e.tdh, tma: e.tma, tmaOK: e.tmaOK}
	}
	wrong := right(1)
	wrong.mph *= 1 + 1e-6
	at := time.Now()
	ss := []sample{
		{at: at, lat: time.Millisecond, ok: true, timed: true, hasAns: true, env: 0, ans: right(0)},
		{at: at, lat: 9 * time.Millisecond, ok: true, timed: true, hasAns: true, env: 1, ans: wrong},
	}
	res := newResult()
	checkAndCount(res, chk, ss)
	if res.attempted != 2 || res.failed != 1 || chk.wrong != 1 {
		t.Fatalf("attempted=%d failed=%d wrong=%d, want 2, 1, 1", res.attempted, res.failed, chk.wrong)
	}
	if st := summarize(ss); st.n != 1 || st.p50 != 1 {
		t.Errorf("latencies: n=%d p50=%v, want only the right answer's 1 ms", st.n, st.p50)
	}
	if r := closedRates(ss, time.Second); len(r) != 10 || r[0] != 10 || r[1] != 0 {
		t.Errorf("rates %v, want the one right answer in the first of ten bins", r)
	}
}

// declaredMetrics reads the metric names BENCHMARK.json declares.
func declaredMetrics(t *testing.T) (endToEnd, perLayer map[string]bool) {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		EndToEnd []struct{ Name string } `json:"end_to_end"`
		PerLayer []struct{ Name string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	endToEnd, perLayer = map[string]bool{}, map[string]bool{}
	for _, m := range doc.EndToEnd {
		endToEnd[m.Name] = true
	}
	for _, m := range doc.PerLayer {
		perLayer[m.Name] = true
	}
	return endToEnd, perLayer
}

// sameNames reports whether a result carries exactly the declared metrics.
func sameNames(t *testing.T, got map[string]metric, want map[string]bool) {
	t.Helper()
	for name := range want {
		if _, ok := got[name]; !ok {
			t.Errorf("declared metric %s missing from the result", name)
		}
	}
	for name := range got {
		if !want[name] {
			t.Errorf("result carries undeclared metric %s", name)
		}
	}
}

// buildServer builds hcserved from the checkout into dir.
func buildServer(t *testing.T, dir string) string {
	t.Helper()
	bin := filepath.Join(dir, "hcserved")
	cmd := exec.Command("go", "build", "-o", bin, "repro/cmd/hcserved")
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		t.Fatalf("building hcserved: %v", err)
	}
	return bin
}

// A tiny traced run of every workload exercises set-up, both loop kinds,
// every check and every layer; a short end-to-end run of hot_reads covers
// the multi-round path.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("starts hcserved processes")
	}
	e2eNames, layerNames := declaredMetrics(t)
	dir := t.TempDir()
	bin := buildServer(t, dir)
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			cfg := testConfig(2)
			cfg.hcserved, cfg.workdir, cfg.root, cfg.trace = bin, filepath.Join(dir, w.name), "..", true
			res, err := traceRun(w, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if !res.correct {
				t.Fatalf("checks failed: %v", res.notes)
			}
			if res.attempted == 0 {
				t.Fatal("nothing attempted")
			}
			sameNames(t, res.metrics, layerNames)
		})
	}
	t.Run("hot_reads_end_to_end", func(t *testing.T) {
		w := workloadByName("hot_reads")
		cfg := testConfig(4)
		cfg.hcserved, cfg.workdir, cfg.root = bin, filepath.Join(dir, "e2e"), ".."
		res, err := endToEnd(w, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if !res.correct || res.failed != 0 {
			t.Fatalf("correct=%v failed=%d: %v", res.correct, res.failed, res.notes)
		}
		sameNames(t, res.metrics, e2eNames)
		for name, m := range res.metrics {
			if m.Value <= 0 {
				t.Errorf("metric %s = %v, want > 0", name, m.Value)
			}
		}
	})
}
