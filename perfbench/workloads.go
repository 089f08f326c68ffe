package main

import (
	"errors"
	"fmt"
	"net/http"
	"path/filepath"
	"sync/atomic"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/etcmat"
	"repro/internal/server"
	"repro/internal/wire"
)

// A run is five identical rounds. Each round spawns fresh hcserved
// processes, waits until they are ready and runs the workload's warm-up
// (together: one set-up sample), then an open-loop segment at the offered
// rate and a closed-loop segment, and stops the processes. stream_edits has
// only the closed loop. setup_s and peak_rss_mb are medians over the
// rounds. p50_ms is the median of every round's open-loop samples
// (stream_edits: its mutations); p99_ms is the median of the p99s of
// consecutive windows of at least 1000 of those samples, so at least 10 lie
// beyond each window's p99 and a burst of host noise moves one window, not
// the result. ops_per_s is the median completion rate over 100 ms bins of
// the closed loops.
const (
	rounds      = 5
	openShare   = 0.12 // of --seconds, per round
	closedShare = 0.08 // of --seconds, per round
)

type runConfig struct {
	hcserved, workdir, root string
	seed                    uint64
	seconds                 float64
	workers                 int // requests in flight: the CPU count
	trace                   bool
}

type workload struct {
	name      string
	nodes     int
	clustered bool
	// rate is the open-loop offered rate in requests/s: about a third of the
	// closed-loop throughput the workload measured at the commit that
	// introduced the benchmark, so the open loop builds no backlog; 0 marks
	// a closed-loop-only workload.
	rate float64
	plan func(w *workload, cfg runConfig) *plan
}

func (w *workload) openN(cfg runConfig) int {
	return int(w.rate * cfg.seconds * openShare)
}

var workloads = []*workload{
	{name: "hot_reads", nodes: 1, rate: 580, plan: func(w *workload, cfg runConfig) *plan {
		// The closed pools cycle, so their length only sets the mix's period.
		p := hotPlan(cfg.seed, w.openN(cfg), 4096)
		p.prebuild()
		return p
	}},
	{name: "cold_solves", nodes: 1, rate: 300, plan: func(w *workload, cfg runConfig) *plan {
		return coldPlan(cfg.seed, 160, w.openN(cfg), closedN(1500, cfg))
	}},
	{name: "stream_edits", nodes: 1, plan: func(w *workload, cfg runConfig) *plan {
		// Eight warm sessions per client, so setup_s times enough sessions
		// to vary little from round to round. 60 measured sessions (1440
		// edits) per second of run keep the pool from running out before
		// the closed loop's deadline.
		return streamPlan(cfg.seed, 8*cfg.workers, int(60*cfg.seconds)+8)
	}},
	{name: "cluster_hop", nodes: 3, clustered: true, rate: 220, plan: func(w *workload, cfg runConfig) *plan {
		return clusterPlan(cfg.seed, clusterOpenKeys, clusterClosedKeys)
	}},
}

// closedN sizes a closed-loop pool that is spent at most once for a
// throughput of up to perSecond.
func closedN(perSecond float64, cfg runConfig) int {
	return int(perSecond * cfg.seconds * closedShare)
}

// A cluster round's keys must stay under about 1500 (see clusterPlan), so
// the round's open-loop schedule is one p99 window, whatever --seconds
// says (it lasts clusterOpenKeys / rate seconds), and its closed segment
// ends when a small pool is spent.
const (
	clusterOpenKeys   = p99Window
	clusterClosedKeys = 400
)

func workloadByName(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// round is one set of live nodes serving one phase.
type round struct {
	index int
	cfg   runConfig
	w     *workload
	p     *plan
	hc    *http.Client
	addrs []string
	nodes []*node
	// Cluster rounds: per environment, its content key, the node each
	// request goes to (the one node outside the key's replica set) and the
	// owners the set-up fills; bodies holds the round's built requests.
	ring    *cluster.Ring
	keys    map[int]etcmat.ContentKey
	target  map[int]int
	owners  map[int][]int
	bodies  map[int][]byte
	streams streamPool

	before  []map[string]float64
	setup   time.Duration
	rssMB   float64
	panics  int
	samples []sample // warm-up and measured
}

// prepare does everything a round needs that is not the program's own
// set-up: reserving ports and, for a cluster, building the round's bodies
// and placing their keys on a ring of the reserved addresses.
func (r *round) prepare(shots []shot) error {
	addrs, err := freeAddrs(r.w.nodes)
	if err != nil {
		return err
	}
	r.addrs = addrs
	if !r.w.clustered {
		return nil
	}
	ring := cluster.NewRing(cluster.DefaultReplicas, cluster.DefaultVirtualNodes)
	idx := make(map[string]int)
	for i, a := range addrs {
		ring.Add(a)
		idx[a] = i
	}
	r.ring = ring
	r.keys, r.target, r.owners, r.bodies = map[int]etcmat.ContentKey{}, map[int]int{}, map[int][]int{}, map[int][]byte{}
	for _, s := range shots {
		body := r.p.specs[s.env].build().binBody()
		key, err := server.DecodeEnvContentKey(body, wire.ContentTypeMatrix)
		if err != nil {
			return err
		}
		owned := make([]bool, len(addrs))
		for _, o := range ring.Owners(key) {
			r.owners[s.env] = append(r.owners[s.env], idx[o])
			owned[idx[o]] = true
		}
		for i := range owned {
			if !owned[i] {
				r.target[s.env] = i
			}
		}
		r.keys[s.env], r.bodies[s.env] = key, body
	}
	return nil
}

// start spawns the nodes and runs the warm-up; the time both take is the
// round's set-up sample. The /metrics scrape that opens the accounting
// window is taken between the two and left out of the sample.
func (r *round) start(logDir string) error {
	t0 := time.Now()
	nodes, err := startNodes(r.cfg.hcserved, logDir, r.addrs, r.w.clustered, r.hc)
	r.nodes = nodes
	if err != nil {
		return err
	}
	ready := time.Since(t0)
	if r.before, err = scrapeAll(r.hc, r.nodes); err != nil {
		return err
	}
	t1 := time.Now()
	r.warm()
	r.setup = ready + time.Since(t1)
	return nil
}

// finish closes the accounting window once the counters have settled,
// reads the peak RSS and stops the nodes. It returns the accounting identities the window broke.
func (r *round) finish() ([]string, error) {
	after, err := settledScrape(r.hc, r.nodes)
	if err != nil {
		stopNodes(r.nodes)
		return nil, err
	}
	for _, n := range r.nodes {
		mb, err := n.peakRSSMB()
		if err != nil {
			stopNodes(r.nodes)
			return nil, err
		}
		r.rssMB += mb
	}
	breaks := accountingBreaks(r.nodes, r.before, after)
	stopNodes(r.nodes)
	for _, n := range r.nodes {
		r.panics += n.panicLines()
	}
	return breaks, nil
}

func (r *round) body(s shot) []byte {
	if b, ok := r.bodies[s.env]; ok {
		return b
	}
	return r.p.body(s)
}

// shotTo sends one one-shot request to node n.
func (r *round) shotTo(n int, s shot) sample {
	a, err := characterize(r.hc, r.nodes[n].url(), r.body(s), s.json, s.binOut)
	return sample{ok: err == nil, timed: true, hasAns: err == nil, env: s.env, ans: a, err: errText(err)}
}

// shot sends one request to where the workload routes it: the only node,
// or in a cluster the node that does not own the key.
func (r *round) shot(s shot) sample {
	return r.shotTo(r.target[s.env], s)
}

// warm runs the unmeasured set-up pass with the workload's concurrency.
func (r *round) warm() {
	switch {
	case r.w.name == "stream_edits":
		r.streams.reset(r.p.warmSessions, 0, r.cfg.workers)
		ss, _ := closedLoop(r.cfg.workers, time.Hour, func(w int) (sample, bool) {
			return r.streams.step(r, w)
		})
		r.samples = append(r.samples, ss...)
	case r.w.clustered:
		// The cache fill: every warm key to both of its owners.
		type fill struct {
			s    shot
			node int
		}
		var fills []fill
		for _, s := range r.roundShots() {
			if !r.p.cold[s.env] {
				for _, o := range r.owners[s.env] {
					fills = append(fills, fill{s, o})
				}
			}
		}
		r.samples = append(r.samples, r.runList(len(fills), func(i int) sample {
			return r.shotTo(fills[i].node, fills[i].s)
		})...)
	default:
		r.samples = append(r.samples, r.runList(len(r.p.warm), func(i int) sample {
			return r.shot(r.p.warm[i])
		})...)
	}
}

// runList runs n operations back to back on the workload's concurrency.
func (r *round) runList(n int, do func(i int) sample) []sample {
	var next atomic.Int64
	ss, _ := closedLoop(r.cfg.workers, time.Hour, func(int) (sample, bool) {
		i := int(next.Add(1) - 1)
		if i >= n {
			return sample{}, false
		}
		return do(i), true
	})
	return ss
}

// roundShots are the requests this round's cluster holds keys for, in the
// order the fill and the phases use them.
func (r *round) roundShots() []shot {
	return append(append([]shot(nil), r.p.open[r.index]...), r.p.closed[r.index]...)
}

// closedPhase runs the closed loop over the round's closed pool (hot_reads
// cycles it; the cold pools are spent at most once) or stream sessions.
func (r *round) closedPhase(dur time.Duration) ([]sample, time.Duration) {
	if r.w.name == "stream_edits" {
		ss, el := closedLoop(r.cfg.workers, dur, func(w int) (sample, bool) {
			return r.streams.step(r, w)
		})
		r.streams.closeAll()
		return ss, el
	}
	var next atomic.Int64
	cycle := r.w.name == "hot_reads"
	pool := r.p.closed[r.index]
	return closedLoop(r.cfg.workers, dur, func(int) (sample, bool) {
		i := int(next.Add(1) - 1)
		if i >= len(pool) {
			if !cycle {
				return sample{}, false
			}
			i %= len(pool)
		}
		return r.shot(pool[i]), true
	})
}

// ---- stream sessions ------------------------------------------------------

// streamPool hands sessions to workers. Each worker keeps one client
// transport for all its sessions, as a caller reopening sessions would.
type streamPool struct {
	sessions []session
	base     int // index of sessions[0] in the session expectations
	next     atomic.Int64
	workers  []*streamWorker
}

type streamWorker struct {
	hc   *http.Client
	conn *streamConn
	sess int
	op   int
	last *server.ProfileDTO
}

func (sp *streamPool) reset(sessions []session, base, workers int) {
	sp.sessions, sp.base = sessions, base
	sp.next.Store(0)
	if len(sp.workers) != workers {
		sp.workers = make([]*streamWorker, workers)
		for i := range sp.workers {
			sp.workers[i] = &streamWorker{hc: newHTTPClient(1)}
		}
	}
}

// closeAll closes the sessions a phase's deadline cut short. They are not
// counted: the run ended them, not the server.
func (sp *streamPool) closeAll() {
	for _, st := range sp.workers {
		if st.conn != nil {
			st.conn.finish()
			st.conn = nil
		}
	}
}

// step performs the worker's next operation: open a session, apply its next
// mutation, or close it and check the final profile. Only mutations are
// timed. A failed open, mutation or close is a failed operation and ends
// the session; nothing is retried.
func (sp *streamPool) step(r *round, w int) (sample, bool) {
	st := sp.workers[w]
	if st.conn == nil {
		i := int(sp.next.Add(1) - 1)
		if i >= len(sp.sessions) {
			return sample{}, false
		}
		st.sess, st.op = i, 0
		conn, u, err := openStream(st.hc, r.nodes[0].url(), sp.sessions[i].start.build())
		if err == nil {
			if err = updateErr(u); err != nil {
				conn.abort()
			}
		}
		if err != nil {
			return sample{err: "stream open: " + err.Error()}, true
		}
		st.conn, st.last = conn, u.Profile
		return sample{ok: true}, true
	}
	ops := sp.sessions[st.sess].ops
	if st.op < len(ops) {
		op := ops[st.op]
		st.op++
		t0 := time.Now()
		u, err := st.conn.do(op.encoded)
		lat := time.Since(t0)
		if err == nil {
			err = updateErr(u)
		}
		if err != nil {
			st.conn.abort()
			st.conn = nil
			return sample{lat: lat, timed: true, err: "stream " + op.kind + ": " + err.Error()}, true
		}
		st.last = u.Profile
		return sample{lat: lat, ok: true, timed: true}, true
	}
	u, err := st.conn.finish()
	st.conn = nil
	if err == nil && u.Error != nil {
		err = fmt.Errorf("%s: %s", u.Error.Code, u.Error.Message)
	}
	if err == nil && (!u.Closed || u.IncrementalTotal+u.RecomputedTotal != len(ops)) {
		err = fmt.Errorf("summary closed=%v incremental+recomputed=%d, want %d ops",
			u.Closed, u.IncrementalTotal+u.RecomputedTotal, len(ops))
	}
	s := sample{ok: err == nil, err: errText(err)}
	if s.ok {
		s.hasAns, s.env, s.ans = true, sp.base+st.sess, answerFromDTO(st.last)
	}
	return s, true
}

func updateErr(u *server.StreamUpdate) error {
	if u.Error != nil {
		return fmt.Errorf("%s: %s", u.Error.Code, u.Error.Message)
	}
	if u.Profile == nil {
		return errors.New("update without a profile")
	}
	return nil
}

func errText(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

// sessionExpectations returns the cold-solve reference of every session's
// final environment: warm sessions first, then the measured pool.
func sessionExpectations(p *plan) ([]expectation, error) {
	all := append(append([]session(nil), p.warmSessions...), p.sessions...)
	out := make([]expectation, len(all))
	errs := make([]error, len(all))
	parallelFor(len(all), func(i int) {
		e, err := all[i].finalEnv()
		if err != nil {
			errs[i] = err
			return
		}
		out[i] = expectationOf(core.Characterize(e))
	})
	for _, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("replaying a stream session: %w", err)
		}
	}
	return out, nil
}

func logDir(cfg runConfig, round int) string {
	return filepath.Join(cfg.workdir, fmt.Sprintf("round%d", round))
}
