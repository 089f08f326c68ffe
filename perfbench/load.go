package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"io"
	"math"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/server"
	"repro/internal/wire"
)

// newHTTPClient returns the generator's client: keep-alive connections, no
// response compression (the profile encode path is what is measured, not
// gzip), and a deadline so a stuck request fails instead of stalling a run.
func newHTTPClient(conns int) *http.Client {
	tr := &http.Transport{
		MaxIdleConns:        4 * conns,
		MaxIdleConnsPerHost: 2 * conns,
		IdleConnTimeout:     90 * time.Second,
		DisableCompression:  true,
	}
	return &http.Client{Transport: tr, Timeout: 30 * time.Second}
}

// answer is what the checks keep of one profile response.
type answer struct {
	tasks, machines int
	mph, tdh, tma   float64
	tmaOK           bool
	cached          bool
	// digest covers every measure and vector bit for bit, so a JSON and a
	// binary answer for the same environment compare exactly.
	digest uint64
}

func digestOf(tasks, machines int, scalars []float64, vecs ...[]float64) uint64 {
	h := fnv.New64a()
	var b [8]byte
	put := func(x uint64) {
		for i := range b {
			b[i] = byte(x >> (8 * i))
		}
		h.Write(b[:])
	}
	put(uint64(tasks))
	put(uint64(machines))
	for _, v := range scalars {
		put(math.Float64bits(v))
	}
	for _, vs := range vecs {
		put(uint64(len(vs)))
		for _, v := range vs {
			put(math.Float64bits(v))
		}
	}
	return h.Sum64()
}

func answerFromWire(p *wire.Profile) answer {
	tma := p.TMA
	if !p.TMAValid {
		tma = math.NaN()
	}
	return answer{
		tasks: p.Tasks, machines: p.Machines,
		mph: p.MPH, tdh: p.TDH, tma: tma, tmaOK: p.TMAValid, cached: p.Cached,
		digest: digestOf(p.Tasks, p.Machines,
			[]float64{p.MPH, p.TDH, tma, p.RatioR, p.GeoMeanG, p.COV,
				float64(p.SinkhornIterations), float64(p.Trimmed)},
			p.MachinePerf, p.TaskDiff),
	}
}

func answerFromDTO(p *server.ProfileDTO) answer {
	tma, ok := math.NaN(), false
	if p.TMA != nil {
		tma, ok = *p.TMA, true
	}
	return answer{
		tasks: p.Tasks, machines: p.Machines,
		mph: p.MPH, tdh: p.TDH, tma: tma, tmaOK: ok, cached: p.Cached,
		digest: digestOf(p.Tasks, p.Machines,
			[]float64{p.MPH, p.TDH, tma, p.RatioR, p.GeoMeanG, p.COV,
				float64(p.SinkhornIterations), float64(p.Trimmed)},
			p.MachinePerf, p.TaskDiff),
	}
}

// characterize sends one /v1/characterize request and decodes the answer.
// Any status but 200 (429, 5xx, …) is an error: failures are counted, never
// retried.
func characterize(hc *http.Client, baseURL string, body []byte, jsonBody, binOut bool) (answer, error) {
	req, err := http.NewRequest(http.MethodPost, baseURL+"/v1/characterize", bytes.NewReader(body))
	if err != nil {
		return answer{}, err
	}
	if jsonBody {
		req.Header.Set("Content-Type", "application/json")
	} else {
		req.Header.Set("Content-Type", wire.ContentTypeMatrix)
	}
	if binOut {
		req.Header.Set("Accept", wire.ContentTypeProfile)
	} else {
		req.Header.Set("Accept", "application/json")
	}
	resp, err := hc.Do(req)
	if err != nil {
		return answer{}, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return answer{}, err
	}
	if resp.StatusCode != http.StatusOK {
		return answer{}, fmt.Errorf("HTTP %d: %.200s", resp.StatusCode, raw)
	}
	if binOut {
		if ct := resp.Header.Get("Content-Type"); ct != wire.ContentTypeProfile {
			return answer{}, fmt.Errorf("content type %q, want %s", ct, wire.ContentTypeProfile)
		}
	}
	return decoded.answer(raw, binOut)
}

// answerMemo remembers the answers decoded from recent response bodies.
// hot_reads gets the same few hundred bodies back thousands of times, and
// decoding each again would make the generator, which shares the CPUs with
// the server, the busiest process of the run. A body byte-identical to one
// already decoded has the same answer, so every answer is still checked.
type answerMemo struct {
	mu sync.Mutex
	m  [2]map[string]answer // by body; [1] for binary bodies
}

// memoCap bounds each memo; bodies past it (every cold one) are decoded.
const memoCap = 4096

var decoded = answerMemo{m: [2]map[string]answer{{}, {}}}

func (c *answerMemo) answer(raw []byte, binOut bool) (answer, error) {
	m := c.m[0]
	if binOut {
		m = c.m[1]
	}
	c.mu.Lock()
	a, ok := m[string(raw)]
	c.mu.Unlock()
	if ok {
		return a, nil
	}
	a, err := decodeAnswer(raw, binOut)
	if err != nil {
		return answer{}, err
	}
	c.mu.Lock()
	if len(m) < memoCap {
		m[string(raw)] = a
	}
	c.mu.Unlock()
	return a, nil
}

// decodeAnswer decodes a profile body, binary or JSON.
func decodeAnswer(raw []byte, binOut bool) (answer, error) {
	if binOut {
		p, _, err := wire.DecodeProfile(raw)
		if err != nil {
			return answer{}, err
		}
		return answerFromWire(p), nil
	}
	var dto server.ProfileDTO
	if err := json.Unmarshal(raw, &dto); err != nil {
		return answer{}, err
	}
	return answerFromDTO(&dto), nil
}

// sample is one finished operation.
type sample struct {
	at   time.Time     // the due time (open loop) or the send (closed loop)
	lat  time.Duration // from at
	late time.Duration // open loop: how far behind its schedule the send went out
	ok   bool
	// timed marks operations that enter the latency percentiles; stream
	// opens and closes are counted but not timed.
	timed bool
	// hasAns marks a sample whose answer is checked after the run against
	// the expectation of environment (or stream session) env.
	hasAns bool
	env    int
	ans    answer
	err    string // why the operation failed, for the failure examples
}

// openLoop sends n operations at a fixed offered rate, at evenly spaced due
// times, with at most workers in flight. An operation that finds every
// worker busy goes out late, and its latency still runs from its due time,
// so a stall is charged to every request it delays. Even spacing (rather
// than Poisson arrivals) keeps the tail a property of the server, not of the
// seed's burst pattern.
func openLoop(workers int, rate float64, n int, do func(i int) sample) []sample {
	out := make([]sample, n)
	var next atomic.Int64
	start := time.Now().Add(2 * time.Millisecond)
	interval := float64(time.Second) / rate
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= n {
					return
				}
				due := start.Add(time.Duration(float64(i) * interval))
				if d := time.Until(due); d > 0 {
					time.Sleep(d)
				}
				late := time.Since(due)
				s := do(i)
				s.at, s.lat = due, time.Since(due)
				s.late = late
				out[i] = s
			}
		}()
	}
	wg.Wait()
	return out
}

// closedLoop runs workers clients back to back until dur has passed or do
// reports that its pool is spent. It returns the samples and the wall time
// from the start to the last completion.
func closedLoop(workers int, dur time.Duration, do func(w int) (sample, bool)) ([]sample, time.Duration) {
	start := time.Now()
	deadline := start.Add(dur)
	per := make([][]sample, workers)
	var mu sync.Mutex
	var last time.Time
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for time.Now().Before(deadline) {
				t0 := time.Now()
				s, more := do(w)
				if !more {
					break
				}
				s.at = t0
				if s.lat == 0 {
					s.lat = time.Since(t0)
				}
				per[w] = append(per[w], s)
			}
			mu.Lock()
			if t := time.Now(); t.After(last) {
				last = t
			}
			mu.Unlock()
		}(w)
	}
	wg.Wait()
	var out []sample
	for _, s := range per {
		out = append(out, s...)
	}
	return out, last.Sub(start)
}

// latencyStats summarizes the timed, successful samples.
type latencyStats struct {
	n       int
	p50     float64   // ms, over all samples
	p99     float64   // ms, the median of the windows' p99s
	windows int       // p99 windows; 0 when there are fewer than p99Window samples
	lateP99 float64   // ms
	p99s    []float64 // ms, per window
}

// p99Window is the least number of samples a p99 is taken over: 1000
// leaves 10 beyond it.
const p99Window = 1000

func summarize(ss []sample) latencyStats {
	var timed []sample
	var lat, late []float64
	for _, s := range ss {
		if s.ok && s.timed {
			timed = append(timed, s)
			lat = append(lat, ms(s.lat))
			late = append(late, ms(s.late))
		}
	}
	st := latencyStats{
		n:       len(lat),
		p50:     percentile(lat, 0.50),
		lateP99: percentile(late, 0.99),
	}
	// The windows split the samples in the order they were sent into k
	// runs of at least p99Window each.
	sort.SliceStable(timed, func(i, j int) bool { return timed[i].at.Before(timed[j].at) })
	st.windows = len(timed) / p99Window
	for i := 0; i < st.windows; i++ {
		win := timed[i*len(timed)/st.windows : (i+1)*len(timed)/st.windows]
		xs := make([]float64, len(win))
		for j, s := range win {
			xs[j] = ms(s.lat)
		}
		st.p99s = append(st.p99s, percentile(xs, 0.99))
	}
	st.p99 = median(st.p99s)
	return st
}

// rateBin is the width of the bins ops_per_s takes its median over.
const rateBin = 100 * time.Millisecond

// closedRates splits a closed loop that ran for el into bins of about
// rateBin and returns each bin's rate of successful timed completions.
func closedRates(ss []sample, el time.Duration) []float64 {
	if len(ss) == 0 || el <= 0 {
		return nil
	}
	start := ss[0].at
	for _, s := range ss {
		if s.at.Before(start) {
			start = s.at
		}
	}
	bins := int(el / rateBin)
	if bins < 1 {
		bins = 1
	}
	width := el / time.Duration(bins)
	counts := make([]int, bins)
	for _, s := range ss {
		if !s.ok || !s.timed {
			continue
		}
		b := int(s.at.Add(s.lat).Sub(start) / width)
		if b >= bins {
			b = bins - 1
		}
		counts[b]++
	}
	out := make([]float64, bins)
	for i, c := range counts {
		out[i] = float64(c) / width.Seconds()
	}
	return out
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// percentile is the nearest-rank percentile: the smallest value with at
// least q of the sample at or below it.
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	k := int(math.Ceil(q*float64(len(s)))) - 1
	if k < 0 {
		k = 0
	}
	return s[k]
}

// beyond is the number of samples ranked above the q-th percentile.
func beyond(n int, q float64) int { return n - int(math.Ceil(q*float64(n))) }

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}
