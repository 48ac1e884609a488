package serve

// LoadGen is the serving layer's traffic driver: N concurrent clients
// fire detection requests over HTTP against a running server, cycling
// through a fixed image set, and record per-request outcomes (status,
// body). The integration tests use it to pin the acceptance
// criteria — zero errors under concurrency, responses byte-identical to
// serial inference, mean batch size above one — and examples/serving drives
// its demo server with it.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sync"
	"time"

	"skynet/internal/detect"
	"skynet/internal/tensor"
)

// LoadGen configures one load run against a serving endpoint.
type LoadGen struct {
	// URL is the server base URL, e.g. "http://127.0.0.1:8080".
	URL string
	// Clients is the number of concurrent clients; 0 selects 8.
	Clients int
	// Requests is the number of requests per client; 0 selects 4.
	Requests int
	// Images is the request payload pool; client c's r-th request sends
	// Images[(c*Requests+r) % len(Images)]. Required.
	Images []*tensor.Tensor
	// Client is the HTTP client; nil selects http.DefaultClient.
	Client *http.Client
}

// LoadResult records one request's outcome.
type LoadResult struct {
	Client int
	Image  int // index into Images
	Status int
	Body   []byte
	Err    error // transport-level failure; nil for any HTTP response
}

// LoadReport aggregates a run.
type LoadReport struct {
	Results []LoadResult
	Elapsed time.Duration
}

// Count returns the number of responses with the given status.
func (r LoadReport) Count(status int) int {
	n := 0
	for _, res := range r.Results {
		if res.Err == nil && res.Status == status {
			n++
		}
	}
	return n
}

// Errors returns every non-200 outcome (transport errors included).
func (r LoadReport) Errors() []LoadResult {
	var out []LoadResult
	for _, res := range r.Results {
		if res.Err != nil || res.Status != http.StatusOK {
			out = append(out, res)
		}
	}
	return out
}

// Run fires the configured load and blocks until every request resolved
// or ctx fires (pending requests are abandoned to their HTTP timeouts).
func (l *LoadGen) Run(ctx context.Context) (LoadReport, error) {
	if len(l.Images) == 0 {
		return LoadReport{}, fmt.Errorf("serve: loadgen needs at least one image")
	}
	clients := l.Clients
	if clients <= 0 {
		clients = 8
	}
	perClient := l.Requests
	if perClient <= 0 {
		perClient = 4
	}
	hc := l.Client
	if hc == nil {
		hc = http.DefaultClient
	}

	// Pre-encode each distinct image once; clients share the read-only
	// bytes through bytes.NewReader.
	bodies := make([][]byte, len(l.Images))
	for i, img := range l.Images {
		var buf bytes.Buffer
		if err := detect.EncodeRequest(&buf, img); err != nil {
			return LoadReport{}, err
		}
		bodies[i] = buf.Bytes()
	}

	results := make([]LoadResult, clients*perClient)
	var wg sync.WaitGroup
	t0 := time.Now()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for r := 0; r < perClient; r++ {
				idx := c*perClient + r
				imgIdx := idx % len(bodies)
				results[idx] = l.one(ctx, hc, c, imgIdx, bodies[imgIdx])
				if ctx.Err() != nil {
					return
				}
			}
		}(c)
	}
	wg.Wait()
	return LoadReport{Results: results, Elapsed: time.Since(t0)}, ctx.Err()
}

// TrackLoadGen drives the tracking routes: each client owns one session —
// POST /track/start on frame 0, one /track/step per later frame, then
// /track/stop — so S clients exercise S concurrent sessions interleaving
// through the shared inference stage. The integration tests use it to pin
// byte-identical-to-offline tracking under concurrency.
type TrackLoadGen struct {
	// URL is the server base URL.
	URL string
	// Sessions is the number of concurrent sessions; 0 selects 8.
	Sessions int
	// Frames is the per-session sequence: Frames[s][0] starts session s,
	// every later frame is one step. Each needs at least 2 frames.
	Frames [][]*tensor.Tensor
	// Boxes holds each session's init box.
	Boxes []detect.Box
	// Mask requests the mask patch with every step.
	Mask bool
	// Client is the HTTP client; nil selects http.DefaultClient.
	Client *http.Client
}

// TrackSessionResult records one session's outcome.
type TrackSessionResult struct {
	Session string
	// Boxes are the per-step boxes in frame order (steps that failed leave
	// a zero box).
	Boxes []detect.Box
	// Masks are the per-step mask payloads when requested.
	Masks []*detect.Request
	// Statuses holds each call's HTTP status: start, then one per step.
	Statuses []int
	// BytesPerSession is the server-reported resident footprint.
	BytesPerSession int64
	Err             error // first transport or decode failure
}

// TrackLoadReport aggregates a tracking load run.
type TrackLoadReport struct {
	Sessions []TrackSessionResult
	// Steps is the number of successful step calls across sessions.
	Steps int
}

// Errors returns every session with a transport failure or a non-200 call.
func (r TrackLoadReport) Errors() []TrackSessionResult {
	var out []TrackSessionResult
	for _, s := range r.Sessions {
		bad := s.Err != nil
		for _, st := range s.Statuses {
			if st != http.StatusOK {
				bad = true
			}
		}
		if bad {
			out = append(out, s)
		}
	}
	return out
}

// Run fires every session concurrently and blocks until all resolve.
func (l *TrackLoadGen) Run(ctx context.Context) (TrackLoadReport, error) {
	n := l.Sessions
	if n <= 0 {
		n = 8
	}
	if len(l.Frames) == 0 || len(l.Boxes) != len(l.Frames) {
		return TrackLoadReport{}, fmt.Errorf("serve: track loadgen needs matching Frames and Boxes")
	}
	hc := l.Client
	if hc == nil {
		hc = http.DefaultClient
	}
	out := make([]TrackSessionResult, n)
	var wg sync.WaitGroup
	for s := 0; s < n; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			seq := s % len(l.Frames)
			out[s] = l.oneSession(ctx, hc, l.Frames[seq], l.Boxes[seq])
		}(s)
	}
	wg.Wait()
	rep := TrackLoadReport{Sessions: out}
	for _, s := range out {
		for i, st := range s.Statuses {
			if i > 0 && st == http.StatusOK {
				rep.Steps++
			}
		}
	}
	return rep, ctx.Err()
}

// postJSON posts one JSON payload and decodes the response into dst.
func postJSON(ctx context.Context, hc *http.Client, url string, payload, dst any) (int, error) {
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(payload); err != nil {
		return 0, err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, &buf)
	if err != nil {
		return 0, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := hc.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return resp.StatusCode, err
	}
	if dst != nil {
		if err := json.Unmarshal(body, dst); err != nil {
			return resp.StatusCode, fmt.Errorf("serve: decoding %s response: %w", url, err)
		}
	}
	return resp.StatusCode, nil
}

func (l *TrackLoadGen) oneSession(ctx context.Context, hc *http.Client, frames []*tensor.Tensor, init detect.Box) TrackSessionResult {
	var res TrackSessionResult
	if len(frames) < 2 {
		res.Err = fmt.Errorf("serve: session needs at least 2 frames, got %d", len(frames))
		return res
	}
	start := TrackStartRequest{Shape: frames[0].Shape(), Data: frames[0].Data, Box: init}
	var sr TrackStartResponse
	status, err := postJSON(ctx, hc, l.URL+"/track/start", start, &sr)
	res.Statuses = append(res.Statuses, status)
	if err != nil || status != http.StatusOK {
		res.Err = err
		return res
	}
	res.Session = sr.Session
	res.BytesPerSession = sr.BytesPerSession
	for _, frame := range frames[1:] {
		step := TrackStepRequest{Session: sr.Session, Shape: frame.Shape(), Data: frame.Data, Mask: l.Mask}
		var sp TrackStepResponse
		status, err := postJSON(ctx, hc, l.URL+"/track/step", step, &sp)
		res.Statuses = append(res.Statuses, status)
		if err != nil {
			res.Err = err
			return res
		}
		res.Boxes = append(res.Boxes, sp.Box)
		if l.Mask {
			res.Masks = append(res.Masks, sp.Mask)
		}
	}
	_, _ = postJSON(ctx, hc, l.URL+"/track/stop", TrackStopRequest{Session: sr.Session}, nil)
	return res
}

func (l *LoadGen) one(ctx context.Context, hc *http.Client, client, imgIdx int, body []byte) LoadResult {
	res := LoadResult{Client: client, Image: imgIdx}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, l.URL+"/detect", bytes.NewReader(body))
	if err != nil {
		res.Err = err
		return res
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := hc.Do(req)
	if err != nil {
		res.Err = err
		return res
	}
	defer resp.Body.Close()
	res.Status = resp.StatusCode
	res.Body, res.Err = io.ReadAll(resp.Body)
	return res
}
