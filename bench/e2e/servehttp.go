package main

// Workload serve-http: a serve.Pool with one replica behind Pool.Handler()
// on a real 127.0.0.1 listener, at the skynet-serve defaults (SkyNet C,
// Width 0.25, 48×96 frames, cache 4096). Small frames and a small model
// make decode, hash, queueing, batch wait and HTTP about half of a request,
// so serving-surface and codec changes show here while kernel changes
// barely do. One request in four repeats a frame sent earlier in the run,
// so the response cache is read beside its writes.

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"skynet/internal/dataset"
	"skynet/internal/detect"
	"skynet/internal/nn"
	"skynet/internal/serve"
	"skynet/internal/tensor"
)

// serveSize is the workload's scale.
type serveSize struct {
	width  float64
	h, w   int
	bases  int     // distinct base scenes; bodies are pre-encoded from them
	rate   float64 // open-loop arrival rate, requests per second
	digest int     // the open phase's first ops, which output_digest covers
}

func serveSizes(toy bool) serveSize {
	if toy {
		return serveSize{width: 0.125, h: 16, w: 32, bases: 8, rate: 200, digest: 40}
	}
	return serveSize{width: 0.25, h: 48, w: 96, bases: 64, rate: 40, digest: 80}
}

// Phase shares of the run's seconds. The open phase is an open loop: one
// dispatcher releases requests on a fixed schedule whatever the server
// does, each is timed from the moment it was due, and how late the
// dispatcher itself ran is reported. The closed phase is a closed loop:
// every connection sends its next request when the last one answered.
const (
	serveOpenShare   = 0.5
	serveClosedShare = 0.4
	closedRounds     = 4
	// maxSchedLagMS is the generator self-check: an open-loop run whose
	// dispatcher ran later than this at the 90th percentile measured the
	// generator, and is marked invalid.
	maxSchedLagMS = 2.0
	// variants is how many distinct frames one base scene yields.
	variants = 4096
)

// frameBank makes any number of distinct frames out of a few rendered
// scenes: frame u is scene u%bases with its first pixel set to a value
// unique to u/bases. To the server every one is a different frame (its
// cache keys on a hash of all pixels), while the bank pre-encodes only the
// base bodies and splices the one pixel's digits in per request — the
// client encodes nothing inside a timed phase and holds a few MB, not a
// body per request.
type frameBank struct {
	base   []*tensor.Tensor
	prefix [][]byte // body up to the first pixel's digits
	suffix [][]byte // body after them
}

func newFrameBank(cfg dataset.Config, n int) (*frameBank, error) {
	gen := dataset.NewGenerator(cfg)
	b := &frameBank{}
	marker := []byte(`"data":[`)
	for i := 0; i < n; i++ {
		img := gen.Scene().Image
		var buf bytes.Buffer
		if err := detect.EncodeRequest(&buf, img); err != nil {
			return nil, fmt.Errorf("encoding base frame: %w", err)
		}
		body := buf.Bytes()
		at := bytes.Index(body, marker)
		if at < 0 {
			return nil, errors.New("request body has no data array; the wire format changed")
		}
		start := at + len(marker)
		end := start + bytes.IndexAny(body[start:], ",]")
		if end < start {
			return nil, errors.New("request body's data array is malformed")
		}
		b.base = append(b.base, img)
		b.prefix = append(b.prefix, append([]byte(nil), body[:start]...))
		b.suffix = append(b.suffix, append([]byte(nil), body[end:]...))
	}
	return b, nil
}

// pixel is the value that makes variant v of a scene unique. Multiples of
// 1/4096 are exact in float32, so the text round-trips bit for bit.
func pixel(u int, bases int) float32 { return float32(u/bases%variants) / variants }

// body appends frame u's request body to dst.
func (b *frameBank) body(dst []byte, u int) []byte {
	i := u % len(b.base)
	dst = append(dst, b.prefix[i]...)
	dst = strconv.AppendFloat(dst, float64(pixel(u, len(b.base))), 'f', -1, 32)
	return append(dst, b.suffix[i]...)
}

// frame builds frame u as a tensor.
func (b *frameBank) frame(u int) *tensor.Tensor {
	img := b.base[u%len(b.base)].Clone()
	img.Data[0] = pixel(u, len(b.base))
	return img
}

// frameOf maps an op to the frame it sends. Ops 5, 9, 13, ... repeat the
// frame of the op five before them (long answered, even in a closed loop);
// the others send frames never sent before.
func frameOf(op int) int {
	if isRepeat(op) {
		return frameOf(op - 5)
	}
	return op - (op-2)/4 // minus the repeats before op
}

// isRepeat reports whether op re-sends an earlier op's frame.
func isRepeat(op int) bool { return op%4 == 1 && op >= 5 }

// serveSys is one started server with the client that talks to it.
type serveSys struct {
	pool   *serve.Pool
	srv    *http.Server
	served chan error
	url    string
	client *http.Client
	conns  int
}

// warmBase is where warm-up frames start, far above any timed op's frame.
const warmBase = 200000

// startServe is the set-up setup_s times: build the model, start the pool,
// listen, and answer two requests per connection.
func startServe(ctx context.Context, sz serveSize, bank *frameBank, tr *tracer) (*serveSys, error) {
	s := &serveSys{conns: clientLimit(), served: make(chan error, 1)}
	factory := func() (detect.Model, *detect.Head, error) {
		// The replica's model belongs to the server's inference worker;
		// nothing here keeps a reference to it.
		var m detect.Model = skynetC(sz.width)
		if tr != nil {
			m = &tracedModel{inner: m, tr: tr, name: "model.forward"}
		}
		return m, detect.NewHead(detect.DefaultAnchors), nil
	}
	pool, err := serve.NewPool(factory, serve.PoolConfig{
		Replicas:     1,
		CacheEntries: 4096,
		Replica:      serve.Config{Channels: 3},
	})
	if err != nil {
		return nil, fmt.Errorf("pool: %w", err)
	}
	s.pool = pool
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		pool.Close()
		return nil, fmt.Errorf("listen: %w", err)
	}
	s.srv = &http.Server{Handler: pool.Handler()}
	go func() { s.served <- s.srv.Serve(ln) }()
	s.url = "http://" + ln.Addr().String() + "/detect"
	s.client = &http.Client{Transport: &http.Transport{
		MaxIdleConnsPerHost: s.conns,
		MaxConnsPerHost:     s.conns,
	}}
	// Warm every connection, not just the first.
	warm := make(chan error, s.conns)
	for c := 0; c < s.conns; c++ {
		go func(c int) {
			var buf []byte
			for i := 0; i < 2; i++ {
				buf = bank.body(buf[:0], warmBase+2*c+i)
				if status, _, err := s.post(ctx, buf); err != nil || status != http.StatusOK {
					warm <- fmt.Errorf("warm-up request: status %d: %v", status, err)
					return
				}
			}
			warm <- nil
		}(c)
	}
	var warmErr error
	for c := 0; c < s.conns; c++ {
		if err := <-warm; err != nil {
			warmErr = err
		}
	}
	if warmErr != nil {
		_ = s.stop(ctx) // the warm-up failure is the error worth reporting
		return nil, warmErr
	}
	return s, nil
}

// stop shuts the listener, the pool and the client's connections down and
// waits for the serving goroutine.
func (s *serveSys) stop(ctx context.Context) error {
	ctx, cancel := context.WithTimeout(ctx, 10*time.Second)
	defer cancel()
	s.client.CloseIdleConnections()
	err := s.srv.Shutdown(ctx)
	if serveErr := <-s.served; err == nil && !errors.Is(serveErr, http.ErrServerClosed) {
		err = serveErr
	}
	if drainErr := s.pool.Drain(ctx); err == nil {
		err = drainErr
	}
	return err
}

// post sends one body and returns the status and the response bytes.
func (s *serveSys) post(ctx context.Context, body []byte) (int, []byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, s.url, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := s.client.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	return resp.StatusCode, data, err
}

// answer is what one op got back.
type answer struct {
	op      int
	status  int
	body    []byte
	due     time.Time // open loop: when the op was scheduled to start
	start   time.Time // when a connection picked it up
	done    time.Time
	lateMS  float64 // open loop: how late the dispatcher released it
	failure string
}

// latencyMS is timed from the due time in an open loop, so the wait a
// stall imposes on later requests counts; from the send in a closed loop.
func (a *answer) latencyMS() float64 {
	if !a.due.IsZero() {
		return ms(a.done.Sub(a.due))
	}
	return ms(a.done.Sub(a.start))
}

// do performs one op on one connection's reusable buffer.
func (s *serveSys) do(ctx context.Context, bank *frameBank, buf []byte, a *answer) []byte {
	buf = bank.body(buf[:0], frameOf(a.op))
	a.start = time.Now()
	status, body, err := s.post(ctx, buf)
	a.done = time.Now()
	a.status, a.body = status, body
	if err != nil {
		a.failure = err.Error()
	}
	return buf
}

// openLoop releases n ops at the fixed rate from one dispatcher goroutine
// and serves them on at most s.conns keep-alive connections. firstOp
// numbers the ops.
func (s *serveSys) openLoop(ctx context.Context, bank *frameBank, firstOp, n int, rate float64, tr *tracer) []*answer {
	answers := make([]*answer, n)
	// Buffered for every op of the phase: the dispatcher must never wait for
	// a connection, or the loop would not be open.
	jobs := make(chan *answer, n)
	var wg sync.WaitGroup
	for c := 0; c < s.conns; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var buf []byte
			for a := range jobs {
				id := tr.begin("serve.http_roundtrip", 0, int64(a.op))
				buf = s.do(ctx, bank, buf, a)
				tr.end(id)
			}
		}()
	}
	start := time.Now()
	for i := 0; i < n; i++ {
		due := start.Add(time.Duration(float64(i) / rate * float64(time.Second)))
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		a := &answer{op: firstOp + i, due: due, lateMS: ms(time.Since(due))}
		answers[i] = a
		jobs <- a
	}
	close(jobs)
	wg.Wait()
	return answers
}

// closedLoop keeps s.conns connections sending back to back for the given
// time. Ops are numbered from firstOp in the order connections claim them.
func (s *serveSys) closedLoop(ctx context.Context, bank *frameBank, firstOp int, d time.Duration, tr *tracer) []*answer {
	var next atomic.Int64
	next.Store(int64(firstOp))
	deadline := time.Now().Add(d)
	perConn := make([][]*answer, s.conns)
	var wg sync.WaitGroup
	for c := 0; c < s.conns; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			var buf []byte
			for time.Now().Before(deadline) {
				a := &answer{op: int(next.Add(1) - 1)}
				id := tr.begin("serve.http_roundtrip", 0, int64(a.op))
				buf = s.do(ctx, bank, buf, a)
				tr.end(id)
				perConn[c] = append(perConn[c], a)
			}
		}(c)
	}
	wg.Wait()
	var all []*answer
	for _, as := range perConn {
		all = append(all, as...)
	}
	sort.Slice(all, func(i, j int) bool { return all[i].done.Before(all[j].done) })
	return all
}

// serveCheck verifies answers: every 200 decodes, a repeated frame's body
// is byte-identical to its first answer, and sampled answers equal a direct
// forward on a second model built from the same seed.
type serveCheck struct {
	bank    *frameBank
	ref     *nn.Graph
	head    *detect.Head
	byOp    map[int][]byte
	sampled int
}

func newServeCheck(bank *frameBank, width float64) *serveCheck {
	return &serveCheck{bank: bank, ref: skynetC(width), head: detect.NewHead(detect.DefaultAnchors), byOp: map[int][]byte{}}
}

// direct is the reference answer's bytes for frame u.
func (c *serveCheck) direct(u int) ([]byte, error) {
	x := stackBatch([]*tensor.Tensor{c.bank.frame(u)}, 1)
	boxes, confs := c.head.Decode(c.ref.Forward(x, false))
	var buf bytes.Buffer
	if err := detect.EncodeResponse(&buf, detect.Response{Box: boxes[0], Conf: confs[0]}); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// wrong reports why an answer is not acceptable, or "".
func (c *serveCheck) wrong(a *answer) string {
	if a.failure != "" {
		return a.failure
	}
	if a.status != http.StatusOK {
		return fmt.Sprintf("status %d", a.status)
	}
	resp, err := detect.DecodeResponse(bytes.NewReader(a.body))
	if err != nil {
		return err.Error()
	}
	if resp.Error != "" {
		return "200 with error " + resp.Error
	}
	c.byOp[a.op] = a.body
	if isRepeat(a.op) {
		if first, ok := c.byOp[a.op-5]; !ok || !bytes.Equal(first, a.body) {
			return "a repeated frame's answer differs from its first"
		}
	}
	if a.op%16 == 0 {
		want, err := c.direct(frameOf(a.op))
		if err != nil {
			return err.Error()
		}
		c.sampled++
		if !bytes.Equal(want, a.body) {
			return "answer differs from a direct forward"
		}
	}
	return ""
}

// judge checks a phase's answers in op order and counts them on r.
func (c *serveCheck) judge(r *result, answers []*answer, corrupt bool) {
	ordered := append([]*answer(nil), answers...)
	sort.Slice(ordered, func(i, j int) bool { return ordered[i].op < ordered[j].op })
	for _, a := range ordered {
		r.Attempted++
		if corrupt && a.op == 16 && len(a.body) > 12 {
			a.body = append([]byte(nil), a.body...)
			a.body[12] ^= 1
		}
		if why := c.wrong(a); why != "" {
			r.Failed++
			if r.Failed <= 3 {
				fmt.Printf("  op %d failed: %s\n", a.op, why)
			}
		}
	}
}

func runServe(ctx context.Context, rc runConfig) (*result, error) {
	r := newResult("serve-http", rc)
	sz := serveSizes(rc.toy)
	bank, err := newFrameBank(sceneConfig(sz.w, sz.h, rc.seed), sz.bases)
	if err != nil {
		return nil, err
	}

	var tr *tracer
	if rc.trace {
		tr = newTracer()
	}
	sys, setups, err := repeatSetup(rc,
		func() (*serveSys, error) { return startServe(ctx, sz, bank, tr) },
		func(s *serveSys) error { return s.stop(ctx) })
	if err != nil {
		return nil, err
	}
	t := tally{setups: setups}
	check := newServeCheck(bank, sz.width)
	if sys.conns > clientLimit() {
		r.invalidate("%d connections on %d cores", sys.conns, clientLimit())
	}

	if rc.trace {
		err = traceServe(ctx, r, rc, sz, sys, bank, check, tr)
	} else {
		err = measureServe(ctx, r, rc, sz, sys, bank, check, &t)
	}
	if stopErr := sys.stop(ctx); err == nil && stopErr != nil {
		err = fmt.Errorf("stopping server: %w", stopErr)
	}
	if err != nil {
		return nil, err
	}
	return r, nil
}

// openDigest folds the first n answers of the open phase, the ops every
// run of a seed sends whatever its length and whether it is traced.
func openDigest(open []*answer, n int) string {
	d := newDigest()
	for _, a := range open[:min(n, len(open))] {
		d.bytes(a.body)
	}
	return d.String()
}

// measureServe is the untraced run: the open phase for the latencies and
// the failures, the closed phase for the throughput.
func measureServe(ctx context.Context, r *result, rc runConfig, sz serveSize, sys *serveSys, bank *frameBank, check *serveCheck, t *tally) error {
	nOpen := max(int(rc.share(serveOpenShare).Seconds()*sz.rate), sz.digest)
	before := markMem()
	open := sys.openLoop(ctx, bank, 0, nOpen, sz.rate, nil)
	t.mem = before.until(markMem())
	t.ops = int64(len(open))

	closedFor := rc.share(serveClosedShare)
	closedStart := time.Now()
	closed := sys.closedLoop(ctx, bank, nOpen, closedFor, nil)

	check.judge(r, open, rc.corrupt)
	check.judge(r, closed, false)
	var lags []float64
	for _, a := range open {
		t.latencies = append(t.latencies, a.latencyMS())
		lags = append(lags, a.lateMS)
	}
	r.Digest = openDigest(open, sz.digest)
	var done []time.Time // of the ops that were answered: a refusal is not throughput
	for _, a := range closed {
		if a.failure == "" && a.status == http.StatusOK {
			done = append(done, a.done)
		}
	}
	t.roundRate = roundRates(done, closedStart, closedFor, closedRounds)
	lag := percentile(lags, 90)
	r.set("serve.sched_lag_p90_ms", lag, "ms") // the generator self-check's evidence
	if lag > maxSchedLagMS {
		r.invalidate("open-loop dispatcher ran %.2f ms late at p90 (limit %.1f ms)", lag, maxSchedLagMS)
	}
	r.Samples["direct_forward_checks"] = check.sampled
	r.Samples["closed_loop_ops"] = len(closed)
	return r.endToEnd(t)
}
