package main

import (
	"context"
	"fmt"
	"io"
	"log/slog"
	"math"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/linalg"
	"repro/internal/matrix"
	"repro/internal/obs"
	"repro/internal/server"
	"repro/internal/sinkhorn"
	"repro/internal/wire"
)

// The traced run gives the per-layer numbers. It starts one round like the
// end-to-end run and splits the first open-loop schedule (stream_edits: the
// session pool) in two halves. Half A runs untraced; half B runs with the
// benchmark's inline probes (the request's content-key decode, and in a
// cluster its ring placement) timed just before each send. The ratio of
// their median latencies is the tracing overhead. /metrics deltas over half
// B give the server and cluster counters. After the round, the benchmark
// times the public functions of every other layer on the environments half B
// sent, from its own code: no span is added inside the program, and the
// obs spans core.CharacterizeCtx records when a trace rides its context
// give the children of the characterize call.
//
// Every workload reports every per-layer metric; a layer the workload does
// not reach reports 0 (for example cluster.* outside cluster_hop and
// core.mutate_ms.* outside stream_edits).

// traceEnvCap bounds the environments (and traceSessionCap the sessions)
// timed after the round, which keeps a traced run's length near an
// untraced one's.
const (
	traceEnvCap     = 200
	traceSessionCap = 16
	traceForwardCap = 200
)

// requestProbe is what half B records per one-shot request.
type requestProbe struct {
	env      int
	rtt      time.Duration
	decode   time.Duration
	owners   time.Duration // cluster: the ring lookup
	binOut   bool
	cached   bool
	answered bool
}

func traceRun(w *workload, cfg runConfig) (*result, error) {
	p, chk, err := prepareRun(w, cfg)
	if err != nil {
		return nil, err
	}
	res := newResult()
	steal0, total0 := cpuTimes()
	r, err := openRound(w, cfg, p, 0, res)
	if err != nil {
		return nil, err
	}
	var (
		ssA, ssB []sample
		mid      []map[string]float64
		probes   []requestProbe
		shotsB   []shot
		sessB    []session
		fwd      []float64
		owners   []float64
	)
	if w.rate > 0 {
		list := p.open[0]
		shotsB = list[len(list)/2:]
		ssA = openLoop(cfg.workers, w.rate, len(list)/2, func(i int) sample { return r.shot(list[i]) })
		if mid, err = settledScrape(r.hc, r.nodes); err != nil {
			stopNodes(r.nodes)
			return nil, err
		}
		probes = make([]requestProbe, len(shotsB))
		ssB = openLoop(cfg.workers, w.rate, len(shotsB), func(i int) sample {
			s, pr := r.tracedShot(shotsB[i])
			probes[i] = pr
			return s
		})
		for _, pr := range probes {
			if pr.owners > 0 {
				owners = append(owners, us(pr.owners))
			}
		}
	} else {
		dur := time.Duration(cfg.seconds / 4 * float64(time.Second))
		n := len(p.sessions) / 2
		r.streams.reset(p.sessions[:n], len(p.warmSessions), cfg.workers)
		ssA, _ = r.closedPhase(dur)
		if mid, err = settledScrape(r.hc, r.nodes); err != nil {
			stopNodes(r.nodes)
			return nil, err
		}
		r.streams.reset(p.sessions[n:], len(p.warmSessions)+n, cfg.workers)
		ssB, _ = r.closedPhase(dur)
		sessB = p.sessions[n:]
		if used := int(r.streams.next.Load()); used < len(sessB) {
			sessB = sessB[:used]
		}
	}
	after, err := settledScrape(r.hc, r.nodes)
	if err != nil {
		stopNodes(r.nodes)
		return nil, err
	}
	if w.clustered {
		fwd = r.benchForwards(shotsB)
	}
	breaks, err := r.finish()
	if err != nil {
		return nil, err
	}
	checkAndCount(res, chk, r.samples)
	checkAndCount(res, chk, ssA)
	checkAndCount(res, chk, ssB)
	finishChecks(res, chk, breaks, r.panics)

	// Counters over half B.
	d := func(series string) float64 { return delta(mid, after, series) }
	hits, misses, coalesced := d(mHits), d(mMisses), d(mCoalesced)
	res.set("server.hits", hits, "count")
	res.set("server.misses", misses, "count")
	res.set("server.coalesced", coalesced, "count")
	res.set("server.rejected", d(mRejected), "count")
	res.set("server.hit_ratio", ratio(hits, hits+misses+coalesced), "ratio")
	res.set("cluster.forwarded", d(mForwarded), "count")
	res.set("cluster.peer_fills", d(mPeerFills), "count")
	res.set("cluster.forward_errors", d(mForwardErrors), "count")
	res.set("cluster.hedged", d(mHedged), "count")
	res.set("cluster.hedge_win_ratio", ratio(d(mHedgeWins), d(mHedged)), "ratio")
	res.set("cluster.replica_reads", d(mReplicaReads), "count")
	res.set("cluster.peer_queue_full", d(mPeerQueueFull), "count")
	res.set("core.incremental_ratio", ratio(d(mStreamIncremental), d(mStreamProfiles)), "ratio")
	res.set("core.recomputed", d(mStreamRecomputed), "count")
	res.set("cluster.forward_ms", median(fwd), "ms")
	res.set("cluster.owners_us", median(owners), "us")

	// Layer calls timed in-process on half B's inputs.
	var envIdx []int
	seen := map[int]bool{}
	for _, s := range shotsB {
		if !seen[s.env] && len(envIdx) < traceEnvCap {
			seen[s.env] = true
			envIdx = append(envIdx, s.env)
		}
	}
	lt := newLayerTimes()
	for _, i := range envIdx {
		lt.env(p.specs[i], i)
	}
	for i, s := range sessB {
		if i >= traceSessionCap {
			break
		}
		lt.env(s.start, -1)
		if err := lt.session(s); err != nil {
			return nil, err
		}
	}
	lt.report(res)
	res.set("server.decode_key_us.json", median(decodeTimes(probes, true, shotsB)), "us")
	res.set("server.decode_key_us.bin", median(decodeTimes(probes, false, shotsB)), "us")
	res.set("server.http_self_ms", httpSelf(w, probes, ssB, lt, fwd), "ms")

	stA, stB := summarize(ssA), summarize(ssB)
	late := 0.0
	if w.rate > 0 {
		late = stA.lateP99
	}
	res.set("bench.late_ms_p99", late, "ms")
	res.set("bench.trace_overhead", stB.p50/stA.p50, "ratio")
	steal1, total1 := cpuTimes()
	res.note("cpu_steal_share", ratio(steal1-steal0, total1-total0))
	res.note("traced_requests", len(ssB))
	res.note("untraced_requests", len(ssA))
	res.note("timed_envs", len(envIdx))
	return res, nil
}

// tracedShot is r.shot with the inline probes: the content-key decode of
// the body and, in a cluster, the ring lookup for the key.
func (r *round) tracedShot(s shot) (sample, requestProbe) {
	body := r.body(s)
	ct := wire.ContentTypeMatrix
	if s.json {
		ct = "application/json"
	}
	t0 := time.Now()
	key, err := server.DecodeEnvContentKey(body, ct)
	dec := time.Since(t0)
	var owners time.Duration
	if err == nil && r.ring != nil {
		t1 := time.Now()
		r.ring.Owners(key)
		owners = time.Since(t1)
	}
	t2 := time.Now()
	smp := r.shot(s)
	pr := requestProbe{env: s.env, rtt: time.Since(t2), decode: dec, owners: owners,
		binOut: s.binOut, cached: smp.ans.cached, answered: smp.ok}
	return smp, pr
}

// benchForwards times cluster.Router.Forward from a benchmark-side router
// whose ring holds exactly the three nodes, on half B's warm keys (both
// owners hold them by now).
func (r *round) benchForwards(shots []shot) []float64 {
	const self = "perfbench"
	rt := cluster.NewRouter(cluster.Config{
		Self:   self,
		Peers:  r.addrs,
		Logger: slog.New(slog.NewTextHandler(io.Discard, nil)),
	})
	rt.Ring().Remove(self)
	defer rt.Client().CloseIdleConnections()
	var out []float64
	for _, s := range shots {
		if len(out) >= traceForwardCap {
			break
		}
		if r.p.cold[s.env] {
			continue
		}
		t0 := time.Now()
		_, _, err := rt.Forward(context.Background(), r.keys[s.env], r.bodies[s.env], "", cluster.ForwardOpts{})
		if err == nil {
			out = append(out, ms(time.Since(t0)))
		}
	}
	return out
}

func decodeTimes(probes []requestProbe, json bool, shots []shot) []float64 {
	var out []float64
	for i, pr := range probes {
		if shots[i].json == json && pr.answered {
			out = append(out, us(pr.decode))
		}
	}
	return out
}

// httpSelf is the median round trip of half B minus the median time the
// traced layers account for in it. One-shot requests subtract, per request,
// the content-key decode, the characterize call on a miss (outside a
// cluster) and the binary profile encode; a cluster hop also subtracts the
// median benchmark-side forward. Stream mutations subtract the median
// in-process MutableEnv mutation.
func httpSelf(w *workload, probes []requestProbe, ssB []sample, lt *layerTimes, fwd []float64) float64 {
	if w.rate == 0 {
		var rtt []float64
		for _, s := range ssB {
			if s.ok && s.timed {
				rtt = append(rtt, ms(s.lat))
			}
		}
		var mut []float64
		for _, xs := range lt.mutate {
			mut = append(mut, xs...)
		}
		return median(rtt) - median(mut)
	}
	appendMs := median(lt.appendUs) / 1000
	var self []float64
	for _, pr := range probes {
		if !pr.answered {
			continue
		}
		layer := ms(pr.decode)
		if !pr.cached && !w.clustered {
			c, ok := lt.charByEnv[pr.env]
			if !ok {
				continue
			}
			layer += c
		}
		if pr.binOut {
			layer += appendMs
		}
		if w.clustered {
			layer += median(fwd)
		}
		self = append(self, ms(pr.rtt)-layer)
	}
	return median(self)
}

// layerTimes collects the in-process layer timings.
type layerTimes struct {
	contentKeyUs, standardFormMs, standardizeMs, iterations []float64
	gramMs, svMs, characterizeMs                            []float64
	decodeEnvUs, appendUs, decodeProfileUs, frameBytes      []float64
	self                                                    map[string][]float64
	mutate                                                  map[string][]float64
	charByEnv                                               map[int]float64
	trimmed                                                 int
	stdTotal, trimExtra                                     float64
}

func newLayerTimes() *layerTimes {
	return &layerTimes{
		self:      map[string][]float64{},
		mutate:    map[string][]float64{},
		charByEnv: map[int]float64{},
	}
}

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// timeStandardize times one sinkhorn.Standardize on the environment's
// weighted ECS matrix.
func timeStandardize(e *env) (time.Duration, *sinkhorn.Result, error) {
	w := e.etcmat().WeightedECS()
	t0 := time.Now()
	res, err := sinkhorn.Standardize(w)
	return time.Since(t0), res, err
}

// env times every numeric and wire layer once on one environment, each call
// on a fresh library environment so no memoized result is reused.
func (lt *layerTimes) env(spec envSpec, idx int) {
	e := spec.build()
	body := e.binBody()

	x := e.etcmat()
	t0 := time.Now()
	x.ContentKey()
	lt.contentKeyUs = append(lt.contentKeyUs, us(time.Since(t0)))

	x = e.etcmat()
	t0 = time.Now()
	x.StandardForm()
	lt.standardFormMs = append(lt.standardFormMs, ms(time.Since(t0)))

	dt, res, err := timeStandardize(e)
	lt.standardizeMs = append(lt.standardizeMs, ms(dt))
	lt.stdTotal += ms(dt)
	if err == nil {
		lt.iterations = append(lt.iterations, float64(res.Iterations))
		lt.trimmed += res.Trimmed
		k := min(spec.T, spec.M)
		dst := matrix.New(k, k)
		t0 = time.Now()
		matrix.GramInto(dst, res.Scaled)
		lt.gramMs = append(lt.gramMs, ms(time.Since(t0)))
		t0 = time.Now()
		linalg.SingularValues(res.Scaled, nil)
		lt.svMs = append(lt.svMs, ms(time.Since(t0)))
	}
	if spec.Zero {
		// The zero-free twin (same cells, no zero) isolates what the zero
		// costs the standardization: the zero-pattern trim.
		twin := spec
		twin.Zero = false
		if dz, _, err := timeStandardize(twin.build()); err == nil && dt > dz {
			lt.trimExtra += ms(dt - dz)
		}
	}

	x = e.etcmat()
	tr := obs.New("", "characterize")
	ctx := obs.NewContext(context.Background(), tr)
	t0 = time.Now()
	prof := core.CharacterizeCtx(ctx, x)
	total := time.Since(t0)
	lt.characterizeMs = append(lt.characterizeMs, ms(total))
	if idx >= 0 {
		lt.charByEnv[idx] = ms(total)
	}
	childSum := time.Duration(0)
	for name, self := range selfTimes(tr.Spans()) {
		lt.self[name] = append(lt.self[name], ms(self))
		childSum += self
	}
	lt.self["characterize"] = append(lt.self["characterize"], ms(total-childSum))

	t0 = time.Now()
	if _, _, err := wire.DecodeEnv(body); err == nil {
		lt.decodeEnvUs = append(lt.decodeEnvUs, us(time.Since(t0)))
	}
	lt.frameBytes = append(lt.frameBytes, float64(len(body)))
	wp := profileWire(prof)
	t0 = time.Now()
	frame, err := wire.AppendProfile(nil, wp)
	if err == nil {
		lt.appendUs = append(lt.appendUs, us(time.Since(t0)))
		t0 = time.Now()
		if _, _, err := wire.DecodeProfile(frame); err == nil {
			lt.decodeProfileUs = append(lt.decodeProfileUs, us(time.Since(t0)))
		}
	}
}

// session replays a stream session on core.MutableEnv, timing each
// mutation by op.
func (lt *layerTimes) session(s session) error {
	ctx := context.Background()
	me := core.NewMutableEnv(ctx, s.start.build().etcmat(), 0)
	defer me.Close()
	for _, op := range s.ops {
		var err error
		t0 := time.Now()
		switch op.kind {
		case "set_cell":
			_, _, err = me.SetCell(ctx, op.i, op.j, op.v)
		case "add_task":
			_, _, err = me.AddTask(ctx, "", op.vec)
		case "drop_task":
			_, _, err = me.DropTask(ctx, op.i)
		case "add_machine":
			_, _, err = me.AddMachine(ctx, "", op.vec)
		case "drop_machine":
			_, _, err = me.DropMachine(ctx, op.j)
		case "weights":
			_, _, err = me.SetWeights(ctx, op.vec, op.vec2)
		}
		if err != nil {
			return fmt.Errorf("replaying %s on core.MutableEnv: %w", op.kind, err)
		}
		lt.mutate[op.kind] = append(lt.mutate[op.kind], ms(time.Since(t0)))
	}
	return nil
}

func (lt *layerTimes) report(res *result) {
	res.set("etcmat.content_key_us", median(lt.contentKeyUs), "us")
	res.set("etcmat.standard_form_ms", median(lt.standardFormMs), "ms")
	res.set("sinkhorn.standardize_ms", median(lt.standardizeMs), "ms")
	res.set("sinkhorn.iterations", median(lt.iterations), "count")
	res.set("sinkhorn.trimmed", float64(lt.trimmed), "count")
	res.set("sinkhorn.trim_time_share", ratio(lt.trimExtra, lt.stdTotal), "ratio")
	res.set("matrix.gram_ms", median(lt.gramMs), "ms")
	res.set("linalg.singular_values_ms", median(lt.svMs), "ms")
	res.set("core.characterize_ms", median(lt.characterizeMs), "ms")
	for _, name := range coreChildren {
		res.set("core.self_ms."+name, median(lt.self[name]), "ms")
	}
	for _, k := range streamOpMix {
		res.set("core.mutate_ms."+k.kind, median(lt.mutate[k.kind]), "ms")
	}
	res.set("wire.decode_env_us", median(lt.decodeEnvUs), "us")
	res.set("wire.append_profile_us", median(lt.appendUs), "us")
	res.set("wire.decode_profile_us", median(lt.decodeProfileUs), "us")
	res.set("wire.frame_bytes", median(lt.frameBytes), "bytes")
}

// coreChildren are the spans core.CharacterizeCtx records, plus its own
// residual self time.
var coreChildren = []string{"characterize", "measures", "standardize", "gram", "eigensolve"}

// selfTimes folds obs spans into self time per name: a span's duration less
// the spans nested directly inside it. "gram_parallel" counts as "gram".
func selfTimes(spans []obs.SpanRecord) map[string]time.Duration {
	out := map[string]time.Duration{}
	inside := func(a, b obs.SpanRecord) bool { // a strictly within b
		return a != b && a.Start >= b.Start && a.Start+a.Dur <= b.Start+b.Dur
	}
	for _, s := range spans {
		self := s.Dur
		for _, c := range spans {
			if !inside(c, s) {
				continue
			}
			direct := true
			for _, m := range spans {
				if m != c && inside(c, m) && inside(m, s) {
					direct = false
					break
				}
			}
			if direct {
				self -= c.Dur
			}
		}
		name := s.Name
		if name == "gram_parallel" {
			name = "gram"
		}
		out[name] += self
	}
	return out
}

func profileWire(p *core.Profile) *wire.Profile {
	wp := &wire.Profile{
		Tasks: p.Tasks, Machines: p.Machines,
		MPH: p.MPH, TDH: p.TDH, RatioR: p.RatioR, GeoMeanG: p.GeoMeanG, COV: p.COV,
		SinkhornIterations: p.SinkhornIterations, Trimmed: p.Trimmed,
		MachinePerf: p.MachinePerf, TaskDiff: p.TaskDiff,
	}
	if p.TMAErr == nil && !math.IsNaN(p.TMA) {
		wp.TMA, wp.TMAValid = p.TMA, true
	}
	return wp
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
