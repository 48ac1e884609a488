package main

// The traced run of serve-http: the open phase again with a span on every
// round trip and every forward, a closed loop with tracing on and off for
// the overhead, the rate ladder, and then the request ledger — each piece
// of a request (decode, Submit, encode, the HTTP stack around them) timed
// alone through the public function that does it.

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"time"

	"skynet/internal/detect"
	"skynet/internal/nn"
	"skynet/internal/pipeline"
	"skynet/internal/serve"
)

// Reserved frame ranges of the sequential probes, clear of every timed op.
const (
	probeSubmitBase = 100000
	probeHTTPBase   = 110000
)

// rateLadder is the fixed arrival rates serve.max_ok_rate_rps is chosen
// from, with the latency limit a rate must meet at its 90th percentile.
var rateLadder = []float64{40, 80, 120, 160}

const (
	ladderLimitMS    = 50.0
	ladderFailShare  = 0.01
	ladderBacklogMS  = 25.0 // pickup delay of a step's last fifth
	ladderStepShare  = 0.08 // of the run's seconds, per step
	traceOpenShare   = 0.2
	traceClosedShare = 0.05 // per slice; four slices
)

// replicaStages converts the pool's first replica's stage snapshot into
// pipeline.StageStats, so the same arithmetic serves the executor's own
// counters and the ones a server publishes.
func replicaStages(m serve.PoolMetrics) []pipeline.StageStats {
	if len(m.ReplicaMetrics) == 0 {
		return nil
	}
	var out []pipeline.StageStats
	for _, st := range m.ReplicaMetrics[0].Stages {
		out = append(out, pipeline.StageStats{
			Name: st.Name, Workers: st.Workers, Items: st.Items, Batches: st.Batches,
			Busy:    time.Duration(st.BusyMS * float64(time.Millisecond)),
			Wait:    time.Duration(st.WaitMS * float64(time.Millisecond)),
			Blocked: time.Duration(st.BlockedMS * float64(time.Millisecond)),
		})
	}
	return out
}

func traceServe(ctx context.Context, r *result, rc runConfig, sz serveSize, sys *serveSys, bank *frameBank, check *serveCheck, tr *tracer) error {
	nextOp := 0

	// The open phase, traced.
	watch := watchGoroutines()
	m0 := sys.pool.Metrics()
	before := markMem()
	nOpen := max(int(rc.seconds*traceOpenShare*sz.rate), sz.digest)
	open := sys.openLoop(ctx, bank, nextOp, nOpen, sz.rate, tr)
	nextOp += nOpen
	mem := before.until(markMem())
	m1 := sys.pool.Metrics()
	r.runtimeMetrics(mem, int64(len(open)), watch.halt())
	check.judge(r, open, rc.corrupt)

	var miss, hit, all, lags []float64
	for _, a := range open {
		lat := a.latencyMS()
		all = append(all, lat)
		lags = append(lags, a.lateMS)
		if isRepeat(a.op) {
			hit = append(hit, lat)
		} else {
			miss = append(miss, lat)
		}
	}
	r.Digest = openDigest(open, sz.digest)
	r.set("serve.latency_miss_p50_ms", percentile(miss, 50), "ms")
	r.set("serve.latency_hit_p50_ms", percentile(hit, 50), "ms")
	r.set("serve.latency_p99_ms", percentile(all, 99), "ms")
	r.set("serve.sched_lag_p90_ms", percentile(lags, 90), "ms")
	if lag := percentile(lags, 90); lag > maxSchedLagMS {
		r.invalidate("open-loop dispatcher ran %.2f ms late at p90 (limit %.1f ms)", lag, maxSchedLagMS)
	}
	lookups := float64(m1.Cache.Hits + m1.Cache.Misses - m0.Cache.Hits - m0.Cache.Misses)
	if lookups > 0 {
		r.set("serve.cache_hit_share", float64(m1.Cache.Hits-m0.Cache.Hits)/lookups, "ratio")
	}
	r.set("serve.shed_share", float64(m1.Rejected-m0.Rejected)/float64(len(open)), "ratio")
	r.set("serve.deadline_share", float64(m1.Expired-m0.Expired)/float64(len(open)), "ratio")
	r.set("serve.server_hist_p50_ms", m1.Latency.P50MS, "ms")
	stageMetrics(r, replicaStages(m0), replicaStages(m1))
	r.set("serve.mean_batch_size", r.Metrics["pipeline.mean_batch_size"].Value, "count")
	r.Samples["open_loop_ops"] = len(open)

	// Closed loop with tracing on and off, for the overhead.
	var tracedRate, plainRate []float64
	slice := rc.share(traceClosedShare)
	for n := 0; n < 4; n++ {
		on := n%2 == 0
		tr.on.Store(on)
		closed := sys.closedLoop(ctx, bank, nextOp, slice, tr)
		tr.on.Store(true)
		nextOp += len(closed)
		check.judge(r, closed, false)
		rate := float64(len(closed)) / slice.Seconds()
		if on {
			tracedRate = append(tracedRate, rate)
		} else {
			plainRate = append(plainRate, rate)
		}
	}
	r.set("trace.overhead_share", 1-median(tracedRate)/median(plainRate), "ratio")
	r.timings(append(tracedRate, plainRate...), all)

	// The rate ladder: the highest fixed rate the server holds.
	best := 0.0
	step := rc.seconds * ladderStepShare
	for _, rate := range rateLadder {
		if rc.toy {
			rate *= 5
		}
		n := max(int(step*rate), 20)
		as := sys.openLoop(ctx, bank, nextOp, n, rate, tr)
		nextOp += n
		failedBefore := r.Failed
		check.judge(r, as, false)
		var lat, pickup []float64
		for _, a := range as {
			lat = append(lat, a.latencyMS())
			pickup = append(pickup, ms(a.start.Sub(a.due)))
		}
		ok := percentile(lat, 90) <= ladderLimitMS &&
			float64(r.Failed-failedBefore)/float64(n) <= ladderFailShare &&
			median(pickup[len(pickup)*4/5:]) <= ladderBacklogMS
		if !ok {
			break
		}
		best = rate
	}
	r.set("serve.max_ok_rate_rps", best, "1/s")

	// The request ledger: one request at a time, each piece through the
	// public function that does it, all pieces of one iteration back to back
	// so that differences between them are taken on the same machine.
	ref := &tracedModel{inner: check.ref, tr: tr, name: "model.forward"}
	probeCodec(r, rc, bank, tr)
	var subMiss, subHit, queueWait, httpOver []float64
	var buf, out bytes.Buffer
	for i := 0; i < rc.reps(30); i++ {
		u := probeHTTPBase + i
		op := int64(u)
		body := bank.body(nil, u)
		id := tr.begin("serve.http_roundtrip_alone", 0, op)
		t0 := time.Now()
		status, _, err := sys.post(ctx, body)
		roundTrip := ms(time.Since(t0))
		tr.end(id)
		r.Attempted++
		if err != nil || status != http.StatusOK {
			r.Failed++
		}

		buf.Reset()
		buf.Write(bank.body(nil, probeSubmitBase+i))
		id = tr.begin("detect.decode_request", 0, op)
		t0 = time.Now()
		img, err := detect.DecodeRequest(&buf)
		decode := ms(time.Since(t0))
		tr.end(id)
		if err != nil {
			return fmt.Errorf("decode probe: %w", err)
		}
		var submit [2]float64 // a miss, then the same frame again: a hit
		var box detect.Box
		var conf float64
		for k := range submit {
			id := tr.begin("serve.submit", 0, op)
			t0 := time.Now()
			box, conf, err = sys.pool.Submit(ctx, img)
			submit[k] = ms(time.Since(t0))
			tr.end(id)
			r.Attempted++
			if err != nil {
				r.Failed++
			}
		}
		out.Reset()
		id = tr.begin("detect.encode_response", 0, op)
		t0 = time.Now()
		err = detect.EncodeResponse(&out, detect.Response{Box: box, Conf: conf})
		encode := ms(time.Since(t0))
		tr.end(id)
		if err != nil {
			return fmt.Errorf("encode probe: %w", err)
		}
		direct, _, err := directFrame(ref, check.head, img, tr, op)
		if err != nil {
			return fmt.Errorf("direct frame: %w", err)
		}
		subMiss, subHit = append(subMiss, submit[0]), append(subHit, submit[1])
		queueWait = append(queueWait, submit[0]-direct.sum())
		httpOver = append(httpOver, roundTrip-decode-submit[0]-encode)
	}
	r.set("serve.submit_miss_ms", median(subMiss), "ms")
	r.set("serve.submit_hit_ms", median(subHit), "ms")
	r.set("serve.queue_wait_ms", median(queueWait), "ms")
	r.set("pipeline.live_batch_wait_ms", median(queueWait), "ms")
	r.set("serve.http_overhead_ms", median(httpOver), "ms")

	// Layer probes on a second model with the same weights: the replica's
	// own model belongs to the server's inference worker.
	frames := bank.base[:min(len(bank.base), 8)]
	probeDetect(r, rc, ref, check.head, frames, tr)
	probeInputs(r, rc, sceneConfig(sz.w, sz.h, rc.seed), func() *nn.Graph { return skynetC(sz.width) }, tr)
	probeNN(r, rc, check.ref, frames, tr)
	probeTensor(r, rc, check.ref, false, tr)

	path, err := tr.write(rc.outDir, r.Workload, rc.seed)
	if err != nil {
		return err
	}
	r.TraceFile = path
	return nil
}

// probeCodec times the wire codec's four directions on one frame.
func probeCodec(r *result, rc runConfig, bank *frameBank, tr *tracer) {
	body := bank.body(nil, 0)
	img := bank.frame(0)
	n := rc.reps(20)
	fail := func(err error) {
		if err != nil {
			r.Failed++
			fmt.Println("  codec probe:", err)
		}
	}
	r.set("detect.request_bytes", float64(len(body)), "B")
	r.set("detect.decode_request_ms", timeMedian(n, func() {
		id := tr.begin("detect.decode_request", 0, -1)
		_, err := detect.DecodeRequest(bytes.NewReader(body))
		tr.end(id)
		fail(err)
	}), "ms")
	var out bytes.Buffer
	r.set("detect.encode_request_ms", timeMedian(n, func() {
		out.Reset()
		id := tr.begin("detect.encode_request", 0, -1)
		err := detect.EncodeRequest(&out, img)
		tr.end(id)
		fail(err)
	}), "ms")
	r.set("detect.encode_response_ms", timeMedian(n, func() {
		out.Reset()
		id := tr.begin("detect.encode_response", 0, -1)
		err := detect.EncodeResponse(&out, detect.Response{Box: detect.Box{CX: 0.5, CY: 0.5, W: 0.1, H: 0.2}, Conf: 0.75})
		tr.end(id)
		fail(err)
	}), "ms")
}
