package main

import (
	"crypto/sha256"
	"encoding/binary"
	"math"
	"math/rand"
	"strconv"

	"repro/internal/etcmat"
	"repro/internal/matrix"
	"repro/internal/wire"
)

// Everything a run sends is derived from the seed through the functions in
// this file, and from nothing else: no clock, no map order, no port number.
// The class composition of every schedule (shapes, zero-bearing share, JSON
// share, cold share, op mix) is fixed by construction; the seed chooses only
// the matrix values, the cell positions and the order of the hot_reads and
// stream_edits schedules. That keeps the latency distribution's shape the
// same from seed to seed, so a percentile lands on the same class of
// request every run.

// envSpec names one generated environment. Bodies and expected profiles are
// rebuilt from it on demand, so a plan holds thousands of environments
// without holding their matrices.
type envSpec struct {
	T, M int
	Zero bool   // one ECS cell is 0 (an impossible pairing, ETC = +Inf)
	Seed uint64 // value stream for the cells
}

// env is a materialized envSpec: a T×M ECS matrix, row-major, unit weights.
type env struct {
	t, m int
	ecs  []float64
}

// splitmix64 derives independent per-item seeds from the run seed.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// derive returns the seed of item i of stream salt under the run seed.
func derive(seed uint64, salt string, i int) uint64 {
	h := splitmix64(seed)
	for _, c := range []byte(salt) {
		h = splitmix64(h ^ uint64(c))
	}
	return splitmix64(h ^ uint64(i)*0x9e3779b97f4a7c15)
}

func rngOf(seed uint64) *rand.Rand { return rand.New(rand.NewSource(int64(seed))) }

// build materializes the spec. Cells follow a range-based model: a task
// factor times a machine factor times per-cell noise, all positive; a
// zero-bearing spec then clears one seeded cell.
func (s envSpec) build() *env {
	rng := rngOf(s.Seed)
	task := make([]float64, s.T)
	for i := range task {
		task[i] = 0.2 + rng.Float64()
	}
	mach := make([]float64, s.M)
	for j := range mach {
		mach[j] = 0.2 + rng.Float64()
	}
	e := &env{t: s.T, m: s.M, ecs: make([]float64, s.T*s.M)}
	for i := 0; i < s.T; i++ {
		for j := 0; j < s.M; j++ {
			e.ecs[i*s.M+j] = task[i] * mach[j] * (0.25 + rng.Float64())
		}
	}
	if s.Zero {
		e.ecs[rng.Intn(s.T*s.M)] = 0
	}
	return e
}

// binBody is the binary env frame (wire.ContentTypeMatrix): raw ECS cells,
// so it hashes to the same content key as the JSON "ecs" body.
func (e *env) binBody() []byte {
	b, err := wire.AppendEnv(nil, &wire.EnvFrame{Rows: e.t, Cols: e.m, ECS: e.ecs})
	if err != nil {
		panic(err) // generated cells are finite and non-negative
	}
	return b
}

// jsonBody is the JSON characterize body {"ecs": [[...], ...]}. 'g' with
// precision -1 round-trips every float64 exactly.
func (e *env) jsonBody() []byte {
	b := make([]byte, 0, 8+e.t*e.m*20)
	b = append(b, `{"ecs":[`...)
	for i := 0; i < e.t; i++ {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, '[')
		for j := 0; j < e.m; j++ {
			if j > 0 {
				b = append(b, ',')
			}
			b = strconv.AppendFloat(b, e.ecs[i*e.m+j], 'g', -1, 64)
		}
		b = append(b, ']')
	}
	return append(b, "]}"...)
}

func (e *env) rows() [][]float64 {
	rows := make([][]float64, e.t)
	for i := range rows {
		rows[i] = e.ecs[i*e.m : (i+1)*e.m : (i+1)*e.m]
	}
	return rows
}

// etcmat returns a fresh library environment of the same content (fresh, so
// no memoized standard form carries over between timed calls).
func (e *env) etcmat() *etcmat.Env {
	x, err := etcmat.NewFromECS(matrix.NewFromData(e.t, e.m, append([]float64(nil), e.ecs...)))
	if err != nil {
		panic(err) // generated matrices have no all-zero line
	}
	return x
}

// shot is one one-shot /v1/characterize request of a plan.
type shot struct {
	env    int  // index into plan.specs
	json   bool // JSON body; binary env frame otherwise
	binOut bool // Accept the binary profile frame; JSON envelope otherwise
}

// plan is the full, seed-determined input of one workload run.
type plan struct {
	specs []envSpec
	// warm is the unmeasured set-up pass; open and closed hold, per round,
	// the open-loop schedule and the closed-loop pool (consumed in order).
	warm         []shot
	open, closed [][]shot
	// cold marks cluster_hop keys left out of the set-up cache fill.
	cold []bool
	// sessions feed stream_edits: warmSessions in set-up, sessions measured.
	warmSessions, sessions []session
	// bodies caches built request bodies for plans whose working set is
	// small enough to hold (hot_reads); nil means build on demand.
	bodies [][2][]byte
}

func (p *plan) body(s shot) []byte {
	k := 0
	if s.json {
		k = 1
	}
	if p.bodies != nil {
		return p.bodies[s.env][k]
	}
	e := p.specs[s.env].build()
	if s.json {
		return e.jsonBody()
	}
	return e.binBody()
}

func (p *plan) prebuild() {
	p.bodies = make([][2][]byte, len(p.specs))
	for i, s := range p.specs {
		e := s.build()
		p.bodies[i] = [2][]byte{e.binBody(), e.jsonBody()}
	}
}

// shuffle permutes xs with a seeded Fisher-Yates.
func shuffle[T any](rng *rand.Rand, xs []T) {
	for i := len(xs) - 1; i > 0; i-- {
		j := rng.Intn(i + 1)
		xs[i], xs[j] = xs[j], xs[i]
	}
}

// ---- hot_reads ------------------------------------------------------------

const (
	hotWorkingSet = 256 // Zipf-ranked environments; with the large ones, well inside the 1024-entry cache
	hotZipfS      = 1.0
	// Every hotLargeEvery-th request names one of hotLarge 300×160
	// environments, half of them with a JSON body. Those JSON decodes are the
	// slowest hits by far, and at a 2% share p99 sits inside them rather
	// than on whichever requests a scheduling stall happened to hit.
	hotLarge      = 8
	hotLargeEvery = 25
	hotLargeT     = 300
	hotLargeM     = 160
)

// hotShape spreads the working set over 30×16 … 150×80 by rank alone, so
// the size mix (and with it the JSON/binary latency mix) is seed-independent.
func hotShape(r int) (int, int) {
	if r >= hotWorkingSet {
		return hotLargeT, hotLargeM
	}
	return 30 + (r*53)%121, 16 + (r*29)%65
}

// zipfShots returns n hot_reads requests. Every hotLargeEvery-th names a
// large environment, evenly spaced so two never overlap. The others give
// env r its Zipf share by largest remainder, exactly half of each env's
// requests carry a JSON body, the Accept types alternate independently of
// the body, and their order is shuffled by the seed.
func zipfShots(rng *rand.Rand, n int) []shot {
	nLarge := n / hotLargeEvery
	w := make([]float64, hotWorkingSet)
	total := 0.0
	for r := range w {
		w[r] = 1 / math.Pow(float64(r+1), hotZipfS)
		total += w[r]
	}
	counts := make([]int, hotWorkingSet)
	rem := make([]float64, hotWorkingSet)
	assigned := 0
	for r := range w {
		x := float64(n-nLarge) * w[r] / total
		counts[r] = int(x)
		rem[r] = x - float64(counts[r])
		assigned += counts[r]
	}
	for ; assigned < n-nLarge; assigned++ {
		best := 0
		for r := range rem {
			if rem[r] > rem[best] {
				best = r
			}
		}
		counts[best]++
		rem[best] = -1
	}
	small := make([]shot, 0, n-nLarge)
	for r, c := range counts {
		for k := 0; k < c; k++ {
			small = append(small, shot{env: r, json: (k+r)%2 == 0, binOut: (k/2+r)%2 == 0})
		}
	}
	shuffle(rng, small)
	out := make([]shot, 0, n)
	for i, l := 0, 0; i < n; i++ {
		if i%hotLargeEvery == hotLargeEvery-1 {
			out = append(out, shot{env: hotWorkingSet + l%hotLarge, json: l%2 == 0, binOut: (l/2)%2 == 0})
			l++
			continue
		}
		out = append(out, small[0])
		small = small[1:]
	}
	return out
}

func hotPlan(seed uint64, nOpen, nClosed int) *plan {
	p := &plan{specs: make([]envSpec, hotWorkingSet+hotLarge)}
	for r := range p.specs {
		t, m := hotShape(r)
		p.specs[r] = envSpec{T: t, M: m, Seed: derive(seed, "hot.env", r)}
	}
	for r := range p.specs {
		p.warm = append(p.warm, shot{env: r, binOut: true})
	}
	for k := 0; k < rounds; k++ {
		p.open = append(p.open, zipfShots(rngOf(derive(seed, "hot.open", k)), nOpen))
		p.closed = append(p.closed, zipfShots(rngOf(derive(seed, "hot.closed", k)), nClosed))
	}
	return p
}

// ---- cold_solves ----------------------------------------------------------

// coldShapes are the zero-free shapes, used in rotation; coldZeroShapes
// carry one zero cell each. The zero shapes keep the zero-pattern trim at
// 5–15 ms and a few megabytes per solve on a 2-CPU host: slower than any
// zero-free solve, so p99 sits inside the zero class, yet far below the
// sizes that exhaust memory (a 101×80 zero-bearing matrix does, and a
// crashed run has no numbers).
var (
	coldShapes     = [][2]int{{30, 16}, {45, 24}, {60, 32}, {75, 40}, {90, 48}, {105, 56}, {120, 64}, {150, 80}}
	coldZeroShapes = [][2]int{{30, 16}, {32, 20}, {36, 20}}
)

// coldBlock is the share denominator: the last environment of every block
// of 8 is the zero-bearing one. Even spacing means two trims never overlap
// in the open loop, so p99 measures the trim rather than a seed-dependent
// pile-up of them.
const coldBlock = 8

// coldSpecs returns n unique cold_solves environments from stream salt.
func coldSpecs(seed uint64, salt string, n int) []envSpec {
	out := make([]envSpec, n)
	nz, z := 0, 0
	for i := range out {
		s := envSpec{Seed: derive(seed, salt, i)}
		if i%coldBlock == coldBlock-1 {
			sh := coldZeroShapes[z%len(coldZeroShapes)]
			s.T, s.M, s.Zero = sh[0], sh[1], true
			z++
		} else {
			sh := coldShapes[nz%len(coldShapes)]
			s.T, s.M = sh[0], sh[1]
			nz++
		}
		out[i] = s
	}
	return out
}

// coldPlan lays the environments out as [warm | open | closed]. Every
// request of a round names a different environment; the rounds repeat the
// same schedule, each on fresh processes with an empty cache, so one set of
// references covers them all.
func coldPlan(seed uint64, nWarm, nOpen, nClosed int) *plan {
	p := &plan{}
	add := func(salt string, n int) []shot {
		base := len(p.specs)
		p.specs = append(p.specs, coldSpecs(seed, salt, n)...)
		out := make([]shot, n)
		for i := range out {
			out[i] = shot{env: base + i, binOut: true}
		}
		return out
	}
	p.warm = add("cold.warm", nWarm)
	open, closed := add("cold.open", nOpen), add("cold.closed", nClosed)
	for k := 0; k < rounds; k++ {
		p.open = append(p.open, open)
		p.closed = append(p.closed, closed)
	}
	return p
}

// ---- cluster_hop ----------------------------------------------------------

// clusterShapes keep the warm keys' forwarded bodies small (≤ 24 KB), so a
// round's keys fit the generator's memory. Cold keys are 300×160, one in
// clusterColdEvery: the owner's solve and two 384 KB hops take about ten
// times a warm hop, so p99 sits well inside the cold class, above the
// tail a scheduling stall gives the warm requests, rather than on the
// border between the two.
var clusterShapes = [][2]int{{30, 16}, {45, 24}, {60, 32}, {75, 40}}

const (
	clusterColdT, clusterColdM = 300, 160
	clusterColdEvery           = 16
)

// clusterPlan gives every round the same keys (each round starts fresh
// nodes), in one order that the set-up fill and both phases follow: the open-loop schedule first, then the
// closed-loop pool. Each key crosses the forward hop once, because the
// requesting node back-fills its cache. Consuming keys in fill order keeps
// a round of up to about 1500 keys warm in the default 1024-entry caches:
// LRU eviction then takes owner copies of keys already used before any key
// still to come. The last key of every block of clusterColdEvery is cold:
// the fill leaves it out.
func clusterPlan(seed uint64, nOpen, nClosed int) *plan {
	p := &plan{}
	out := make([]shot, nOpen+nClosed)
	for i := range out {
		cold := i%clusterColdEvery == clusterColdEvery-1
		t, m := clusterShapes[i%len(clusterShapes)][0], clusterShapes[i%len(clusterShapes)][1]
		if cold {
			t, m = clusterColdT, clusterColdM
		}
		p.specs = append(p.specs, envSpec{T: t, M: m, Seed: derive(seed, "cluster.keys", i)})
		p.cold = append(p.cold, cold)
		out[i] = shot{env: i, binOut: true}
	}
	for k := 0; k < rounds; k++ {
		p.open = append(p.open, out[:nOpen])
		p.closed = append(p.closed, out[nOpen:])
	}
	return p
}

// ---- stream_edits ---------------------------------------------------------

const streamT, streamM = 150, 80

// streamOpMix is the mutation multiset of every session, shuffled by the
// seed: half cell edits, the rest spread over the structural ops and
// weights, with adds and drops balanced so the shape stays near 150×80.
var streamOpMix = []struct {
	kind string
	n    int
}{
	{"set_cell", 12}, {"add_task", 2}, {"drop_task", 2},
	{"add_machine", 2}, {"drop_machine", 2}, {"weights", 4},
}

// streamOp is one mutation of a session.
type streamOp struct {
	kind    string
	i, j    int
	v       float64
	vec     []float64 // add_task/add_machine speeds; weights: task weights
	vec2    []float64 // weights: machine weights
	encoded []byte    // the protocol line
}

type session struct {
	start envSpec
	ops   []streamOp
}

func positive(rng *rand.Rand) float64 { return 0.05 + 1.5*rng.Float64() }

func vec(rng *rand.Rand, n int, lo, span float64) []float64 {
	v := make([]float64, n)
	for i := range v {
		v[i] = lo + span*rng.Float64()
	}
	return v
}

func makeSession(seed uint64) session {
	rng := rngOf(seed)
	s := session{start: envSpec{T: streamT, M: streamM, Seed: splitmix64(seed)}}
	var kinds []string
	for _, k := range streamOpMix {
		for i := 0; i < k.n; i++ {
			kinds = append(kinds, k.kind)
		}
	}
	shuffle(rng, kinds)
	t, m := streamT, streamM
	for _, k := range kinds {
		op := streamOp{kind: k}
		switch k {
		case "set_cell":
			op.i, op.j, op.v = rng.Intn(t), rng.Intn(m), positive(rng)
		case "add_task":
			op.vec = vec(rng, m, 0.05, 1.5)
			t++
		case "drop_task":
			op.i = rng.Intn(t)
			t--
		case "add_machine":
			op.vec = vec(rng, t, 0.05, 1.5)
			m++
		case "drop_machine":
			op.j = rng.Intn(m)
			m--
		case "weights":
			op.vec, op.vec2 = vec(rng, t, 0.5, 1.5), vec(rng, m, 0.5, 1.5)
		}
		op.encoded = op.line()
		s.ops = append(s.ops, op)
	}
	return s
}

func streamPlan(seed uint64, nWarm, nSessions int) *plan {
	p := &plan{}
	for i := 0; i < nWarm; i++ {
		p.warmSessions = append(p.warmSessions, makeSession(derive(seed, "stream.warm", i)))
	}
	for i := 0; i < nSessions; i++ {
		p.sessions = append(p.sessions, makeSession(derive(seed, "stream.session", i)))
	}
	return p
}

// finalEnv replays a session's ops on a library environment: the state the
// server must hold at close.
func (s session) finalEnv() (*etcmat.Env, error) {
	e := s.start.build().etcmat()
	var err error
	for _, op := range s.ops {
		switch op.kind {
		case "set_cell":
			e, err = e.WithECSCell(op.i, op.j, op.v)
		case "add_task":
			e, err = e.AddTask("", op.vec)
		case "drop_task":
			e, err = e.RemoveTask(op.i)
		case "add_machine":
			e, err = e.AddMachine("", op.vec)
		case "drop_machine":
			e, err = e.RemoveMachine(op.j)
		case "weights":
			e, err = e.WithWeights(op.vec, op.vec2)
		}
		if err != nil {
			return nil, err
		}
	}
	return e, nil
}

// scheduleDigest hashes everything a plan would send, in send order, for
// the determinism self-test.
func (p *plan) scheduleDigest() [sha256.Size]byte {
	h := sha256.New()
	var b []byte
	flush := func() {
		h.Write(b)
		b = b[:0]
	}
	put := func(s shot) {
		b = binary.LittleEndian.AppendUint64(b, uint64(s.env))
		b = append(b, boolByte(s.json), boolByte(s.binOut))
		flush()
		h.Write(p.body(s))
	}
	for _, s := range p.warm {
		put(s)
	}
	for _, rs := range [][][]shot{p.open, p.closed} {
		for _, r := range rs {
			for _, s := range r {
				put(s)
			}
		}
	}
	for _, c := range p.cold {
		b = append(b, boolByte(c))
	}
	flush()
	for _, ss := range [][]session{p.warmSessions, p.sessions} {
		for _, s := range ss {
			h.Write(s.start.build().jsonBody())
			for _, op := range s.ops {
				h.Write(op.encoded)
			}
		}
	}
	var out [sha256.Size]byte
	h.Sum(out[:0])
	return out
}

func boolByte(v bool) byte {
	if v {
		return 1
	}
	return 0
}
