package serve

// LoadGen is the serving layer's traffic driver: N concurrent clients
// fire detection requests over HTTP against a running server, cycling
// through a fixed image set, and record per-request outcomes (status,
// body, latency). The integration tests use it to pin the acceptance
// criteria — zero errors under concurrency, responses byte-identical to
// serial inference, mean batch size above one — and cmd/skynet-serve
// exposes it as a self-test mode.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"sort"
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
	Client  int
	Image   int // index into Images
	Status  int
	Body    []byte
	Latency time.Duration
	Err     error // transport-level failure; nil for any HTTP response
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

// LatencyTally is exact (sorted, not bucketed) latency percentiles over one
// outcome class, in milliseconds.
type LatencyTally struct {
	Count  int     `json:"count"`
	MeanMS float64 `json:"mean_ms"`
	P50MS  float64 `json:"p50_ms"`
	P95MS  float64 `json:"p95_ms"`
	P99MS  float64 `json:"p99_ms"`
	MaxMS  float64 `json:"max_ms"`
}

// tallyLatencies computes one class's digest. The input is sorted in place.
func tallyLatencies(lat []time.Duration) LatencyTally {
	if len(lat) == 0 {
		return LatencyTally{}
	}
	sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
	var sum time.Duration
	for _, d := range lat {
		sum += d
	}
	// rank-⌈q·n⌉, matching the serving histogram's convention: the reported
	// quantile is an upper bound on at least q·n observations.
	at := func(q float64) float64 {
		rank := int(math.Ceil(q * float64(len(lat))))
		if rank < 1 {
			rank = 1
		}
		return lat[rank-1].Seconds() * 1e3
	}
	return LatencyTally{
		Count:  len(lat),
		MeanMS: (sum / time.Duration(len(lat))).Seconds() * 1e3,
		P50MS:  at(0.50),
		P95MS:  at(0.95),
		P99MS:  at(0.99),
		MaxMS:  lat[len(lat)-1].Seconds() * 1e3,
	}
}

// LoadSummary classifies a run's outcomes with per-class latency tallies.
// Shed (429) and deadline (504) responses are tallied in their own classes
// and can never pollute the success percentiles: a shed request resolves in
// microseconds and a deadline request resolves at exactly the timeout, and
// folding either into the success histogram used to make the "p99" either
// flatter or exactly the deadline — both lies about what a successful
// caller experiences.
type LoadSummary struct {
	// Offered is every request fired, across classes.
	Offered int `json:"offered"`
	// OK counts 200s; Shed 429s; Deadline 504s; Unavailable 503s; BadInput
	// 400s; OtherHTTP every remaining status; Transport connection-level
	// failures (which have no meaningful HTTP latency class).
	OK          int `json:"ok"`
	Shed        int `json:"shed"`
	Deadline    int `json:"deadline"`
	Unavailable int `json:"unavailable"`
	BadInput    int `json:"bad_input"`
	OtherHTTP   int `json:"other_http"`
	Transport   int `json:"transport"`

	// Success is the 200-only latency digest — the SLO metric.
	Success LatencyTally `json:"success"`
	// ShedLatency and DeadlineLatency keep their classes observable
	// (admission rejections should be fast; deadlines should cluster at
	// the configured timeout).
	ShedLatency     LatencyTally `json:"shed_latency"`
	DeadlineLatency LatencyTally `json:"deadline_latency"`
}

// Summary tallies the report per outcome class.
func (r LoadReport) Summary() LoadSummary {
	var s LoadSummary
	var ok, shed, dead []time.Duration
	for _, res := range r.Results {
		s.Offered++
		switch {
		case res.Err != nil:
			s.Transport++
		case res.Status == http.StatusOK:
			s.OK++
			ok = append(ok, res.Latency)
		case res.Status == http.StatusTooManyRequests:
			s.Shed++
			shed = append(shed, res.Latency)
		case res.Status == http.StatusGatewayTimeout:
			s.Deadline++
			dead = append(dead, res.Latency)
		case res.Status == http.StatusServiceUnavailable:
			s.Unavailable++
		case res.Status == http.StatusBadRequest:
			s.BadInput++
		default:
			s.OtherHTTP++
		}
	}
	s.Success = tallyLatencies(ok)
	s.ShedLatency = tallyLatencies(shed)
	s.DeadlineLatency = tallyLatencies(dead)
	return s
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
	Latency         []time.Duration // one entry per call
	Err             error           // first transport or decode failure
}

// TrackLoadReport aggregates a tracking load run.
type TrackLoadReport struct {
	Sessions []TrackSessionResult
	Elapsed  time.Duration
	// Steps is the number of successful step calls across sessions.
	Steps int
}

// FPS is the aggregate frame rate: successful steps over wall time.
func (r TrackLoadReport) FPS() float64 {
	if r.Elapsed <= 0 {
		return 0
	}
	return float64(r.Steps) / r.Elapsed.Seconds()
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
	t0 := time.Now()
	for s := 0; s < n; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			seq := s % len(l.Frames)
			out[s] = l.oneSession(ctx, hc, l.Frames[seq], l.Boxes[seq])
		}(s)
	}
	wg.Wait()
	rep := TrackLoadReport{Sessions: out, Elapsed: time.Since(t0)}
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
	t0 := time.Now()
	start := TrackStartRequest{Shape: frames[0].Shape(), Data: frames[0].Data, Box: init}
	var sr TrackStartResponse
	status, err := postJSON(ctx, hc, l.URL+"/track/start", start, &sr)
	res.Statuses = append(res.Statuses, status)
	res.Latency = append(res.Latency, time.Since(t0))
	if err != nil || status != http.StatusOK {
		res.Err = err
		return res
	}
	res.Session = sr.Session
	res.BytesPerSession = sr.BytesPerSession
	for _, frame := range frames[1:] {
		t1 := time.Now()
		step := TrackStepRequest{Session: sr.Session, Shape: frame.Shape(), Data: frame.Data, Mask: l.Mask}
		var sp TrackStepResponse
		status, err := postJSON(ctx, hc, l.URL+"/track/step", step, &sp)
		res.Statuses = append(res.Statuses, status)
		res.Latency = append(res.Latency, time.Since(t1))
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
	t0 := time.Now()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, l.URL+"/detect", bytes.NewReader(body))
	if err != nil {
		res.Err = err
		return res
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := hc.Do(req)
	if err != nil {
		res.Err = err
		res.Latency = time.Since(t0)
		return res
	}
	defer resp.Body.Close()
	res.Status = resp.StatusCode
	res.Body, res.Err = io.ReadAll(resp.Body)
	res.Latency = time.Since(t0)
	return res
}
