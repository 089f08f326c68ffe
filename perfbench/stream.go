package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"time"

	"repro/internal/server"
)

// streamOpTimeout bounds one stream round trip. Mutations take a few
// milliseconds; one that takes this long is a stuck session, and the
// session is torn down and counted failed.
const streamOpTimeout = time.Second

var errStreamTimeout = errors.New("stream operation timed out")

// streamConn is the benchmark's own NDJSON /v1/stream client. Unlike a
// client that only cancels the request context, a timeout here also closes
// the request-body pipe, so a transport blocked writing the body cannot
// hold the session (and the run) past the deadline.
type streamConn struct {
	pw     *io.PipeWriter
	resp   *http.Response
	sc     *bufio.Scanner
	cancel context.CancelFunc
	timer  *time.Timer
}

// streamLine is one request line (the fields of the server's protocol).
type streamLine struct {
	Op             string         `json:"op"`
	Env            *server.EnvDTO `json:"env,omitempty"`
	Speeds         []float64      `json:"speeds,omitempty"`
	Index          int            `json:"index,omitempty"`
	Task           int            `json:"task,omitempty"`
	Machine        int            `json:"machine,omitempty"`
	Value          float64        `json:"value,omitempty"`
	TaskWeights    []float64      `json:"taskWeights,omitempty"`
	MachineWeights []float64      `json:"machineWeights,omitempty"`
}

func encodeLine(l streamLine) []byte {
	b, err := json.Marshal(l)
	if err != nil {
		panic(err) // generated values are finite
	}
	return append(b, '\n')
}

// line is the op's protocol line.
func (op streamOp) line() []byte {
	l := streamLine{Op: op.kind}
	switch op.kind {
	case "set_cell":
		l.Task, l.Machine, l.Value = op.i, op.j, op.v
	case "add_task", "add_machine":
		l.Speeds = op.vec
	case "drop_task":
		l.Index = op.i
	case "drop_machine":
		l.Index = op.j
	case "weights":
		l.TaskWeights, l.MachineWeights = op.vec, op.vec2
	}
	return encodeLine(l)
}

// openStream opens a session on env and returns the opening update.
func openStream(hc *http.Client, baseURL string, e *env) (*streamConn, *server.StreamUpdate, error) {
	ctx, cancel := context.WithCancel(context.Background())
	pr, pw := io.Pipe()
	c := &streamConn{pw: pw, cancel: cancel}
	c.timer = time.AfterFunc(streamOpTimeout, c.kill)
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, baseURL+"/v1/stream", pr)
	if err != nil {
		c.kill()
		return nil, nil, err
	}
	req.Header.Set("Content-Type", "application/x-ndjson")
	// Each session gets its own connection. hcserved's stream handler can
	// return with the request body unread, and net/http then panics reading
	// the next request on that connection ("invalid concurrent Body.Read
	// call"), failing a varying share of the sessions opened on it after.
	// Those failures are a server defect, not a cost of the write path.
	req.Close = true
	type doResult struct {
		resp *http.Response
		err  error
	}
	done := make(chan doResult, 1)
	go func() {
		resp, err := hc.Do(req)
		done <- doResult{resp, err}
	}()
	// The server answers headers with the opening profile, so the open line
	// is written while Do is in flight.
	_, werr := pw.Write(encodeLine(streamLine{Op: "open", Env: &server.EnvDTO{ECS: e.rows()}}))
	res := <-done
	if res.err != nil || werr != nil {
		c.kill()
		if res.resp != nil {
			res.resp.Body.Close()
		}
		return nil, nil, errors.Join(res.err, werr)
	}
	c.resp = res.resp
	if res.resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(res.resp.Body, 512))
		c.abort()
		return nil, nil, fmt.Errorf("HTTP %d: %s", res.resp.StatusCode, bytes.TrimSpace(msg))
	}
	c.sc = bufio.NewScanner(res.resp.Body)
	c.sc.Buffer(make([]byte, 0, 64<<10), 8<<20)
	u, err := c.read()
	if err != nil {
		c.abort()
		return nil, nil, err
	}
	return c, u, nil
}

func (c *streamConn) read() (*server.StreamUpdate, error) {
	defer c.timer.Stop()
	if !c.sc.Scan() {
		if err := c.sc.Err(); err != nil {
			return nil, err
		}
		return nil, io.ErrUnexpectedEOF
	}
	var u server.StreamUpdate
	if err := json.Unmarshal(c.sc.Bytes(), &u); err != nil {
		return nil, fmt.Errorf("malformed stream line: %w", err)
	}
	return &u, nil
}

// do sends one request line and reads its answer.
func (c *streamConn) do(line []byte) (*server.StreamUpdate, error) {
	c.timer.Reset(streamOpTimeout)
	if _, err := c.pw.Write(line); err != nil {
		c.timer.Stop()
		return nil, err
	}
	return c.read()
}

// finish sends close, reads the summary line and releases the connection.
func (c *streamConn) finish() (*server.StreamUpdate, error) {
	u, err := c.do(encodeLine(streamLine{Op: "close"}))
	c.pw.Close()
	io.Copy(io.Discard, c.resp.Body)
	c.resp.Body.Close()
	c.cancel()
	return u, err
}

// kill closes the body pipe with an error and cancels the request.
func (c *streamConn) kill() {
	c.pw.CloseWithError(errStreamTimeout)
	c.cancel()
}

func (c *streamConn) abort() {
	c.timer.Stop()
	c.kill()
	if c.resp != nil {
		c.resp.Body.Close()
	}
}
