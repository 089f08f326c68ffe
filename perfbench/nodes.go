package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// node is one hcserved child process, started with its default settings
// plus the listen address and, for a cluster, its seed peers.
type node struct {
	addr string
	cmd  *exec.Cmd
	log  string
	done chan error
}

func (n *node) url() string { return "http://" + n.addr }

// freeAddrs reserves n loopback ports by binding and releasing them.
func freeAddrs(n int) ([]string, error) {
	var lns []net.Listener
	defer func() {
		for _, ln := range lns {
			ln.Close()
		}
	}()
	out := make([]string, n)
	for i := range out {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, fmt.Errorf("reserving a port: %w", err)
		}
		lns = append(lns, ln)
		out[i] = ln.Addr().String()
	}
	return out, nil
}

// startNodes spawns one hcserved process per address and returns once every one answers
// /healthz and, for a cluster, every ring holds all n nodes. Each cluster
// node is seeded with the nodes started before it (the first with itself),
// so joins converge the ring without waiting for a gossip tick.
func startNodes(bin, logDir string, addrs []string, clustered bool, hc *http.Client) ([]*node, error) {
	n := len(addrs)
	var nodes []*node
	fail := func(err error) ([]*node, error) {
		stopNodes(nodes)
		return nil, err
	}
	for i, addr := range addrs {
		args := []string{"-addr", addr}
		if clustered {
			seeds := addrs[:i]
			if i == 0 {
				seeds = addrs[:1]
			}
			args = append(args, "-peers", strings.Join(seeds, ","))
		}
		nd, err := spawn(bin, filepath.Join(logDir, "node"+strconv.Itoa(i)+".log"), addr, args)
		if err != nil {
			return fail(err)
		}
		nodes = append(nodes, nd)
		if err := nd.waitReady(hc, 0); err != nil {
			return fail(err)
		}
	}
	if clustered {
		for _, nd := range nodes {
			if err := nd.waitReady(hc, n); err != nil {
				return fail(err)
			}
		}
	}
	return nodes, nil
}

func spawn(bin, logPath, addr string, args []string) (*node, error) {
	f, err := os.OpenFile(logPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(bin, args...)
	cmd.Stdout, cmd.Stderr = f, f
	// The child must not outlive the benchmark, however the benchmark ends.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		f.Close()
		return nil, fmt.Errorf("starting hcserved: %w", err)
	}
	nd := &node{addr: addr, cmd: cmd, log: logPath, done: make(chan error, 1)}
	go func() {
		err := cmd.Wait()
		f.Close()
		nd.done <- err
	}()
	return nd, nil
}

type health struct {
	Workers   int    `json:"workers"`
	GoVersion string `json:"goVersion"`
	Cluster   *struct {
		RingNodes int `json:"ringNodes"`
	} `json:"cluster"`
}

// waitReady polls /healthz until it answers 200 (and, with ring > 0, until
// the node's ring holds that many nodes). Polls are 1 ms apart so the
// readiness wait adds little to the measured set-up time.
func (n *node) waitReady(hc *http.Client, ring int) error {
	deadline := time.Now().Add(20 * time.Second)
	for time.Now().Before(deadline) {
		select {
		case err := <-n.done:
			n.done <- err
			return fmt.Errorf("hcserved %s exited during start-up: %v (log %s)", n.addr, err, n.log)
		default:
		}
		h, err := n.health(hc)
		if err == nil && (ring == 0 || (h.Cluster != nil && h.Cluster.RingNodes == ring)) {
			return nil
		}
		time.Sleep(time.Millisecond)
	}
	return fmt.Errorf("hcserved %s not ready after 20s (log %s)", n.addr, n.log)
}

func (n *node) health(hc *http.Client) (*health, error) {
	resp, err := hc.Get(n.url() + "/healthz")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, resp.Body)
		return nil, fmt.Errorf("healthz: HTTP %d", resp.StatusCode)
	}
	var h health
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		return nil, err
	}
	return &h, nil
}

// peakRSSMB reads the process's resident-set high-water mark (VmHWM).
func (n *node) peakRSSMB() (float64, error) {
	data, err := os.ReadFile("/proc/" + strconv.Itoa(n.cmd.Process.Pid) + "/status")
	if err != nil {
		return 0, err
	}
	sc := bufio.NewScanner(bytes.NewReader(data))
	for sc.Scan() {
		if f := strings.Fields(sc.Text()); len(f) >= 2 && f[0] == "VmHWM:" {
			kb, err := strconv.ParseFloat(f[1], 64)
			return kb / 1024, err
		}
	}
	return 0, errors.New("no VmHWM line in /proc status")
}

// cpuTimes reads the host's cumulative CPU steal and total ticks. The share
// of steal over a run says how much of it the virtual CPUs spent waiting for
// a physical one, which no design of the benchmark can remove.
func cpuTimes() (steal, total float64) {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(data), "\n")
	f := strings.Fields(line)
	for i := 1; i < len(f); i++ {
		v, _ := strconv.ParseFloat(f[i], 64)
		total += v
		if i == 8 {
			steal = v
		}
	}
	return steal, total
}

// stop sends SIGTERM (graceful drain) and waits for the exit. A node still
// draining after 3 s, such as one holding a stuck stream connection, is
// killed: tear-down is not measured.
func (n *node) stop() {
	if err := n.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		return // already gone; the wait goroutine has reported it
	}
	select {
	case <-n.done:
	case <-time.After(3 * time.Second):
		n.cmd.Process.Kill()
		<-n.done
	}
}

func stopNodes(nodes []*node) {
	for _, n := range nodes {
		n.stop()
	}
}

// panicLines counts server-side panics in the node's log, such as net/http's
// "panic serving" of a stream connection reused while its body was still
// being read.
func (n *node) panicLines() int {
	data, err := os.ReadFile(n.log)
	if err != nil {
		return 0
	}
	return bytes.Count(data, []byte("panic"))
}

// scrape reads a node's /metrics into a series → value map.
func scrape(hc *http.Client, n *node) (map[string]float64, error) {
	resp, err := hc.Get(n.url() + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, resp.Body)
		return nil, fmt.Errorf("metrics: HTTP %d", resp.StatusCode)
	}
	out := make(map[string]float64)
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			continue
		}
		out[line[:i]] = v
	}
	return out, sc.Err()
}

// Series the accounting identities and per-layer counters read.
const (
	mServed            = `hcserved_requests_total{endpoint="characterize",code="200"}`
	mHits              = "hcserved_cache_hits_total"
	mMisses            = "hcserved_cache_misses_total"
	mCoalesced         = "hcserved_coalesced_total"
	mForwarded         = "hcserved_forwarded_total"
	mRejected          = "hcserved_rejected_total"
	mPeerFills         = "hcserved_peer_fills_total"
	mForwardErrors     = "hcserved_forward_errors_total"
	mHedged            = "hcserved_hedged_total"
	mHedgeWins         = "hcserved_hedge_wins_total"
	mReplicaReads      = "hcserved_replica_reads_total"
	mPeerQueueFull     = "hcserved_peer_queue_full_total"
	mStreamSessions    = "hcserved_stream_sessions_total"
	mStreamProfiles    = "hcserved_stream_profiles_total"
	mStreamIncremental = "hcserved_stream_incremental_total"
	mStreamRecomputed  = "hcserved_stream_recomputed_total"
)

// delta is after − before for one series, summed over nodes.
func delta(before, after []map[string]float64, series string) float64 {
	d := 0.0
	for i := range after {
		d += after[i][series] - before[i][series]
	}
	return d
}

func scrapeAll(hc *http.Client, nodes []*node) ([]map[string]float64, error) {
	out := make([]map[string]float64, len(nodes))
	for i, n := range nodes {
		m, err := scrape(hc, n)
		if err != nil {
			return nil, fmt.Errorf("scraping %s: %w", n.addr, err)
		}
		out[i] = m
	}
	return out, nil
}

// settledScrape scrapes every node once the counters have stopped moving.
// A node counts a request after it has written the response, and a
// forward or peer fill can still be finishing on another node when the
// client has its answer, so a scrape taken the moment the load stops can
// lag the requests it should cover. It waits, then scrapes until two
// successive scrapes agree on every counter the checks read (at most about
// two seconds; a counter still moving then shows as an accounting break).
func settledScrape(hc *http.Client, nodes []*node) ([]map[string]float64, error) {
	const pause = 50 * time.Millisecond
	time.Sleep(pause)
	prev, err := scrapeAll(hc, nodes)
	if err != nil {
		return nil, err
	}
	for try := 0; try < 40; try++ {
		time.Sleep(pause)
		cur, err := scrapeAll(hc, nodes)
		if err != nil {
			return nil, err
		}
		if sameCounters(prev, cur) {
			return cur, nil
		}
		prev = cur
	}
	return prev, nil
}

// counterSeries are the series the accounting identities and the
// per-layer counters read.
var counterSeries = []string{
	mServed, mHits, mMisses, mCoalesced, mForwarded, mRejected, mPeerFills,
	mForwardErrors, mHedged, mHedgeWins, mReplicaReads, mPeerQueueFull,
	mStreamSessions, mStreamProfiles, mStreamIncremental, mStreamRecomputed,
}

func sameCounters(a, b []map[string]float64) bool {
	for i := range a {
		for _, s := range counterSeries {
			if a[i][s] != b[i][s] {
				return false
			}
		}
	}
	return true
}

// accountingBreaks checks the identities every node must keep over a
// window: hits+misses+coalesced+forwarded == served characterize requests,
// and stream profiles == sessions + incremental + recomputed. It returns
// one message per broken identity.
func accountingBreaks(nodes []*node, before, after []map[string]float64) []string {
	var out []string
	for i, n := range nodes {
		d := func(s string) float64 { return after[i][s] - before[i][s] }
		served := d(mServed)
		acc := d(mHits) + d(mMisses) + d(mCoalesced) + d(mForwarded)
		if served != acc {
			out = append(out, fmt.Sprintf("node %s: hits+misses+coalesced+forwarded = %g, served = %g", n.addr, acc, served))
		}
		prof := d(mStreamProfiles)
		parts := d(mStreamSessions) + d(mStreamIncremental) + d(mStreamRecomputed)
		if prof != parts {
			out = append(out, fmt.Sprintf("node %s: stream_profiles = %g, sessions+incremental+recomputed = %g", n.addr, prof, parts))
		}
	}
	return out
}
