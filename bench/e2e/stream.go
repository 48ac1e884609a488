package main

// Workloads stream-f32 and stream-int8: the paper's deployment shape. A
// full-size SkyNet C (160×320 input, Width 1, ReLU6, 10-channel head) runs
// behind detect.NewStreamExecutor with the shipped StreamConfig defaults,
// once on the float32 layer graph and once on its quant.Export lowering.
// Inference is more than nine tenths of a frame here, so engine work shows
// on these two and codec or serving work does not; a float-only change
// predicts no change on stream-int8.

import (
	"context"
	"errors"
	"fmt"
	"time"

	"skynet/internal/dataset"
	"skynet/internal/detect"
	"skynet/internal/nn"
	"skynet/internal/pipeline"
	"skynet/internal/quant"
	"skynet/internal/tensor"
)

// streamSize is the workload's scale: the paper's, or the smoke test's.
type streamSize struct {
	width        float64
	h, w         int
	pool         int // distinct frames; one backlog round runs the whole pool
	calibBatches int
	calibBatch   int
	minLive      int // latency samples the live phase takes at least
}

func streamSizes(toy bool) streamSize {
	if toy {
		return streamSize{width: 0.125, h: 32, w: 64, pool: 8, calibBatches: 2, calibBatch: 2, minLive: 8}
	}
	return streamSize{width: 1, h: 160, w: 320, pool: 8, calibBatches: 2, calibBatch: 4, minLive: 40}
}

// Phase shares of the run's seconds. Backlog rounds give the throughput
// (closed loop, the whole pool handed to Executor.Run at once: two
// micro-batches at the default MaxBatch of 4); the live phase gives the
// latencies (closed loop, one frame in flight through Executor.Stream, so
// each frame pays the batcher's MaxDelay wait alone). The live phase is the
// longer one so that it takes about a hundred samples at full size.
const (
	streamBacklogShare = 0.3
	streamLiveShare    = 0.7
	minBacklogRounds   = 4
)

// streamSys is one started instance of the system under test.
type streamSys struct {
	graph   *nn.Graph
	qm      *quant.QuantizedModel // nil on stream-f32
	traced  *tracedModel          // nil on untraced runs
	model   detect.Model          // what the executor runs
	head    *detect.Head
	ex      *pipeline.Executor
	exportS float64
}

// startStream is the set-up setup_s times: build the model, export it for
// the int8 engine, assemble the executor, and answer one frame. (A whole
// micro-batch follows before the timed phases, outside setup_s: it would
// make a float set-up four forward passes long and as noisy as they are.)
func startStream(ctx context.Context, sz streamSize, int8Engine bool, calib, warm []*tensor.Tensor, tr *tracer) (*streamSys, error) {
	s := &streamSys{graph: skynetC(sz.width), head: detect.NewHead(detect.DefaultAnchors)}
	s.model = s.graph
	if int8Engine {
		t0 := time.Now()
		qm, err := quant.Export(s.graph, calib, quant.ExportConfig{})
		if err != nil {
			return nil, fmt.Errorf("export: %w", err)
		}
		s.exportS = time.Since(t0).Seconds()
		s.qm, s.model = qm, qm
	}
	if tr != nil {
		s.traced = &tracedModel{inner: s.model, tr: tr, name: "model.forward"}
		s.model = s.traced
	}
	ex, err := detect.NewStreamExecutor(s.model, s.head, detect.StreamConfig{})
	if err != nil {
		return nil, fmt.Errorf("executor: %w", err)
	}
	s.ex = ex
	if _, _, err := s.backlogRound(ctx, warm); err != nil {
		return nil, fmt.Errorf("warm-up: %w", err)
	}
	return s, nil
}

// backlogRound hands frames to Executor.Run in one call and returns the
// detections in input order with the round's wall time.
func (s *streamSys) backlogRound(ctx context.Context, frames []*tensor.Tensor) ([]detection, time.Duration, error) {
	items := make([]any, len(frames))
	for i, img := range frames {
		items[i] = &detect.Frame{Image: img}
	}
	t0 := time.Now()
	out, err := s.ex.Run(ctx, items)
	wall := time.Since(t0)
	if err != nil {
		return nil, wall, err
	}
	dets := make([]detection, len(out))
	for i, v := range out {
		f, ok := v.(*detect.Frame)
		if !ok {
			return nil, wall, fmt.Errorf("executor returned %T, want *detect.Frame", v)
		}
		dets[i] = detection{box: f.Box, conf: f.Conf}
	}
	return dets, wall, nil
}

// direct is the reference the executor's answers are checked against: one
// frame, one forward, one decode, through the same engine.
func (s *streamSys) direct(img *tensor.Tensor) detection {
	x := stackBatch([]*tensor.Tensor{img}, 1)
	boxes, confs := s.head.Decode(s.model.Forward(x, false))
	return detection{box: boxes[0], conf: confs[0]}
}

// outputCheck holds what each distinct frame must decode to. Every 8th
// frame is pinned to a direct forward; every frame must repeat its own
// first answer bit for bit however it was batched.
type outputCheck struct {
	first []detection
	seen  []bool
	ref   map[int]detection
}

func newOutputCheck(n int) *outputCheck {
	return &outputCheck{first: make([]detection, n), seen: make([]bool, n), ref: map[int]detection{}}
}

// observe records frame idx's answer and reports whether it is right.
func (c *outputCheck) observe(idx int, d detection) bool {
	if want, ok := c.ref[idx]; ok && !d.same(want) {
		return false
	}
	if !c.seen[idx] {
		c.first[idx], c.seen[idx] = d, true
		return true
	}
	return d.same(c.first[idx])
}

// digest folds the distinct frames' answers in frame order. It does not
// depend on how many rounds the run's speed allowed, so two runs of one
// commit print the same value.
func (c *outputCheck) digest() string {
	d := newDigest()
	for i, det := range c.first {
		if c.seen[i] {
			d.box(det.box, det.conf)
		}
	}
	return d.String()
}

// livePhase sends frames one at a time through Executor.Stream until the
// phase's time is used and at least minSamples were taken. visit sees every
// answer with its latency.
func (s *streamSys) livePhase(ctx context.Context, frames []*tensor.Tensor, phase time.Duration, minSamples int, visit func(i int, d detection, lat time.Duration)) error {
	in := make(chan any)
	out, wait := s.ex.Stream(ctx, in)
	start := time.Now()
	var streamErr error
	for i := 0; i < minSamples || time.Since(start) < phase; i++ {
		f := &detect.Frame{Image: frames[i%len(frames)]}
		t0 := time.Now()
		closed := false
		// With one frame in flight nothing is pending on out, so a receive
		// there can only mean the stream failed and closed it.
		select {
		case in <- f:
		case <-out:
			closed = true
		}
		if closed {
			streamErr = errors.New("stream closed before the frame was accepted")
			break
		}
		v, ok := <-out
		lat := time.Since(t0)
		if !ok {
			streamErr = errors.New("stream closed with a frame in flight")
			break
		}
		got, isFrame := v.(*detect.Frame)
		if !isFrame {
			streamErr = fmt.Errorf("stream returned %T, want *detect.Frame", v)
			break
		}
		visit(i, detection{box: got.Box, conf: got.Conf}, lat)
	}
	close(in)
	for range out {
	}
	if err := wait(); err != nil {
		return err
	}
	return streamErr
}

func runStream(ctx context.Context, rc runConfig, int8Engine bool) (*result, error) {
	name := "stream-f32"
	if int8Engine {
		name = "stream-int8"
	}
	r := newResult(name, rc)
	sz := streamSizes(rc.toy)

	dcfg := sceneConfig(sz.w, sz.h, rc.seed)
	gen := dataset.NewGenerator(dcfg)
	frames := make([]*tensor.Tensor, sz.pool)
	for i := range frames {
		frames[i] = gen.Scene().Image
	}
	var calib []*tensor.Tensor
	if int8Engine {
		cgen := dataset.NewGenerator(sceneConfig(sz.w, sz.h, rc.seed+1))
		for b := 0; b < sz.calibBatches; b++ {
			batch := make([]*tensor.Tensor, sz.calibBatch)
			for i := range batch {
				batch[i] = cgen.Scene().Image
			}
			calib = append(calib, stackBatch(batch, len(batch)))
		}
	}

	var tr *tracer
	if rc.trace {
		tr = newTracer()
	}
	sys, setups, err := repeatSetup(rc,
		func() (*streamSys, error) { return startStream(ctx, sz, int8Engine, calib, frames[:1], tr) },
		func(*streamSys) error { return nil }) // an executor between runs holds no goroutine to stop
	if err != nil {
		return nil, err
	}
	t := tally{setups: setups}

	// The first whole micro-batch grows the batch-4 scratch; it is not timed.
	if _, _, err := sys.backlogRound(ctx, frames[:4]); err != nil {
		return nil, fmt.Errorf("warm-up: %w", err)
	}

	check := newOutputCheck(len(frames))
	for i := 0; i < len(frames); i += 8 {
		check.ref[i] = sys.direct(frames[i])
	}
	count := func(i int, d detection) {
		r.Attempted++
		if rc.corrupt && r.Attempted == 3 {
			d.conf += 1e-9
		}
		if !check.observe(i%len(frames), d) {
			r.Failed++
		}
	}

	if rc.trace {
		if err := traceStream(ctx, r, rc, sys, frames, count, tr); err != nil {
			return nil, err
		}
		r.Digest = check.digest()
		return r, nil
	}

	// Backlog: closed loop. A round hands Executor.Run the whole pool; as
	// many rounds as the phase's time allows, sized from the first.
	for n, rounds := 0, minBacklogRounds; n < rounds; n++ {
		dets, wall, err := sys.backlogRound(ctx, frames)
		if err != nil {
			return nil, fmt.Errorf("backlog round %d: %w", n, err)
		}
		if n == 0 {
			rounds = max(int(rc.share(streamBacklogShare)/wall), minBacklogRounds)
		}
		for i, d := range dets {
			count(i, d)
		}
		t.roundRate = append(t.roundRate, float64(len(dets))/wall.Seconds())
	}
	// Live: closed loop, one frame in flight. Allocations are counted over
	// this phase alone: every op takes the same path here, while the mix of
	// backlog and live ops depends on how many rounds the run's speed allowed.
	before, opsBefore := markMem(), r.Attempted
	err = sys.livePhase(ctx, frames, rc.share(streamLiveShare), sz.minLive, func(i int, d detection, lat time.Duration) {
		count(i, d)
		t.latencies = append(t.latencies, ms(lat))
	})
	if err != nil {
		return nil, fmt.Errorf("live phase: %w", err)
	}
	t.mem = before.until(markMem())
	t.ops = r.Attempted - opsBefore

	r.Digest = check.digest()
	if err := r.endToEnd(&t); err != nil {
		return nil, err
	}
	return r, nil
}

// traceStream is the traced run: the workload's own phases with a span on
// every forward (and a round with tracing off, for the overhead), then the
// layer probes at this model's shapes.
func traceStream(ctx context.Context, r *result, rc runConfig, sys *streamSys, frames []*tensor.Tensor, count func(int, detection), tr *tracer) error {
	watch := watchGoroutines()
	before := markMem()
	statsBefore := sys.ex.Stats()
	statsAfter := statsBefore

	// Alternate traced and untraced backlog rounds. What the executor adds
	// to a frame is the wall time its one serial stage, inference, was not
	// busy, taken round by round so both sides saw the same machine.
	var tracedRate, plainRate, overhead []float64
	for n := 0; n < 4; n++ {
		on := n%2 == 0
		tr.on.Store(on)
		dets, wall, err := sys.backlogRound(ctx, frames)
		tr.on.Store(true)
		if err != nil {
			return fmt.Errorf("traced backlog round %d: %w", n, err)
		}
		for i, d := range dets {
			count(i, d)
		}
		rate := float64(len(dets)) / wall.Seconds()
		if on {
			tracedRate = append(tracedRate, rate)
		} else {
			plainRate = append(plainRate, rate)
		}
		stats := sys.ex.Stats()
		for i, st := range stats {
			if st.Name == pipeline.StageInfer {
				busy := st.Busy - statsAfter[i].Busy
				overhead = append(overhead, ms(wall-busy)/float64(len(dets)))
			}
		}
		statsAfter = stats
	}
	r.set("trace.overhead_share", 1-median(tracedRate)/median(plainRate), "ratio")
	r.set("pipeline.overhead_ms", median(overhead), "ms")
	stageMetrics(r, statsBefore, statsAfter)

	// Live frames, each followed by the same frame taken through the stages
	// directly: the difference is what a lone frame pays the batcher.
	var wait, liveMS []float64
	liveFrames := 16
	if rc.toy {
		liveFrames = 6
	}
	var directErr error
	err := sys.livePhase(ctx, frames, 0, liveFrames, func(i int, d detection, lat time.Duration) {
		op := tr.begin("frame.live", 0, int64(i))
		count(i, d)
		tr.end(op)
		// Between two live frames the executor is idle, so the model is
		// free for the direct call.
		direct, dd, err := directFrame(sys.traced, sys.head, frames[i%len(frames)], tr, int64(i))
		if err != nil {
			directErr = err
			return
		}
		count(i, dd)
		wait = append(wait, ms(lat)-direct.sum())
		liveMS = append(liveMS, ms(lat))
	})
	if err == nil {
		err = directErr
	}
	if err != nil {
		return fmt.Errorf("traced live phase: %w", err)
	}
	r.set("pipeline.live_batch_wait_ms", median(wait), "ms")
	r.timings(append(tracedRate, plainRate...), liveMS)
	r.runtimeMetrics(before.until(markMem()), r.Attempted, watch.halt())

	// Layer probes.
	sz := streamSizes(rc.toy)
	probeInputs(r, rc, sceneConfig(sz.w, sz.h, rc.seed), func() *nn.Graph { return skynetC(sz.width) }, tr)
	fwd1 := probeNN(r, rc, sys.graph, frames, tr)
	probeTensor(r, rc, sys.graph, sys.qm != nil, tr)
	if sys.qm != nil {
		probeQuant(r, rc, sys.graph, sys.qm, frames, sys.exportS, fwd1, tr)
	}
	probeDetect(r, rc, sys.traced, sys.head, frames, tr)

	path, err := tr.write(rc.outDir, r.Workload, rc.seed)
	if err != nil {
		return err
	}
	r.TraceFile = path
	return nil
}

// sceneConfig is the generator's shipped clutter and noise at the
// workload's frame size and seed.
func sceneConfig(w, h int, seed int64) dataset.Config {
	cfg := dataset.DefaultConfig()
	cfg.W, cfg.H, cfg.Seed = w, h, seed
	return cfg
}

// stageMetrics derives the pipeline.* stage metrics from an executor's own
// counters, as the difference between two snapshots.
func stageMetrics(r *result, before, after []pipeline.StageStats) {
	delta := map[string]pipeline.StageStats{}
	for i, a := range after {
		b := before[i]
		delta[a.Name] = pipeline.StageStats{Name: a.Name, Workers: a.Workers, Items: a.Items - b.Items,
			Batches: a.Batches - b.Batches, Busy: a.Busy - b.Busy, Wait: a.Wait - b.Wait, Blocked: a.Blocked - b.Blocked}
	}
	perItem := func(stage string) float64 { return delta[stage].PerItemSeconds() * 1e3 }
	inf := delta[pipeline.StageInfer]
	r.set("pipeline.pre_busy_ms", perItem(pipeline.StagePre), "ms")
	r.set("pipeline.infer_busy_ms", perItem(pipeline.StageInfer), "ms")
	r.set("pipeline.post_busy_ms", perItem(pipeline.StagePost), "ms")
	if total := float64(inf.Busy + inf.Wait + inf.Blocked); total > 0 {
		r.set("pipeline.infer_wait_share", float64(inf.Wait)/total, "ratio")
		r.set("pipeline.infer_blocked_share", float64(inf.Blocked)/total, "ratio")
	}
	r.set("pipeline.mean_batch_size", inf.MeanBatchSize(), "count")
}
