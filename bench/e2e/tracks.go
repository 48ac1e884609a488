package main

// Workload track-sessions: an in-process serve.TrackService (Start, Step,
// Stop) around a Siamese tracker with a headless SkyNet A backbone (Width
// 0.5, stride 8, 64-pixel exemplars, 128-pixel search regions, the
// tracker's default cross-correlation backend). It is the only workload
// where track (crop, backbone on the crop, xcorr) and the session table do
// the work. One closed-loop session per core: a tracker needs the previous
// box before it can take the next frame.

import (
	"context"
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"time"

	"skynet/internal/backbone"
	"skynet/internal/dataset"
	"skynet/internal/detect"
	"skynet/internal/nn"
	"skynet/internal/serve"
	"skynet/internal/tensor"
	"skynet/internal/track"
)

// trackSize is the workload's scale. Sequences are three frames long (a
// Start and two Steps) and every session starts from a box of one fixed
// size around the target's true centre. Both are on purpose: the tracker's
// weights are untrained, its box drifts to a clamp within seven frames, and
// dataset.Crop allocates per source pixel of a crop whose side is four times
// the box, so on longer sequences, or from the generator's own 0.12-0.22
// boxes, the cost of a step (time and about 270 000 allocations) is a
// property of the seed, not of the code: allocs_per_op differed by 17-22 %
// between seeds on 24 sequences of 6 frames and differs by under 1 % on these
// (bench/README.md, "Departures").
type trackSize struct {
	width            float64
	exemplar, search int
	side             int     // frames are side×side
	box              float64 // the Start box's width and height, as a share of the frame
	seqs, length     int
}

func trackSizes(toy bool) trackSize {
	if toy {
		return trackSize{width: 0.125, exemplar: 32, search: 64, side: 64, box: 0.17, seqs: 6, length: 3}
	}
	return trackSize{width: 0.5, exemplar: 64, search: 128, side: 192, box: 0.17, seqs: 96, length: 3}
}

// sequences generates the workload's inputs from the seed.
func (sz trackSize) sequences(seed int64) []dataset.Sequence {
	scfg := dataset.DefaultSequenceConfig()
	scfg.Length = sz.length
	seqs := dataset.NewGenerator(sceneConfig(sz.side, sz.side, seed)).Sequences(sz.seqs, scfg)
	for i := range seqs {
		seqs[i].Boxes[0].W, seqs[i].Boxes[0].H = sz.box, sz.box
		// The service never sees the masks; holding them would only pad the
		// resident set this workload's peak_rss_mb reports.
		seqs[i].Masks = nil
	}
	return seqs
}

// trackShare is the share of the run's seconds the sessions run for. They
// never pause: the throughput rounds are equal slices of that time.
const (
	trackShare  = 0.9
	trackRounds = 4
)

// newTracker builds the tracker; the same seed gives the same weights, so a
// second one is the offline reference for the served one.
func newTracker(sz trackSize) *track.Tracker {
	bcfg := backbone.Config{Width: sz.width, InC: 3, HeadChannels: 0, MaxStride: 8, ReLU6: true}
	tcfg := track.DefaultConfig()
	tcfg.ExemplarSize, tcfg.SearchSize = sz.exemplar, sz.search
	return track.New(backbone.SkyNetA(rand.New(rand.NewSource(modelSeed)), bcfg), bcfg.ScaledChannels(512), tcfg)
}

// trackSys is one started tracking service.
type trackSys struct {
	svc      *serve.TrackService
	sessions int
}

// startTrack is the set-up setup_s times: build the tracker, start the
// service, and run one short session so the backbone's scratch is grown.
func startTrack(ctx context.Context, sz trackSize, warm dataset.Sequence) (*trackSys, error) {
	svc, err := serve.NewTrackService(newTracker(sz), serve.TrackConfig{})
	if err != nil {
		return nil, fmt.Errorf("track service: %w", err)
	}
	s := &trackSys{svc: svc, sessions: clientLimit()}
	if run := s.session(ctx, 0, warm, nil); run.failure != "" {
		svc.Close()
		return nil, fmt.Errorf("warm-up session: %s", run.failure)
	}
	return s, nil
}

// sessionRun is one session's outcome: the boxes it returned and when each
// Step finished.
type sessionRun struct {
	seq       int
	boxes     []detect.Box // one per frame after the first
	stepStart []time.Time
	stepDone  []time.Time
	startMS   float64 // Start's latency
	bytes     int64   // resident bytes the service reported for the session
	failure   string
}

// session runs one sequence through Start, a Step per remaining frame, and
// Stop.
func (s *trackSys) session(ctx context.Context, seqID int, seq dataset.Sequence, tr *tracer) sessionRun {
	run := sessionRun{seq: seqID}
	op := int64(seqID)
	id := tr.begin("serve.track_start", 0, op)
	t0 := time.Now()
	sid, bytes, err := s.svc.Start(ctx, seq.Frames[0], seq.Boxes[0])
	run.startMS = ms(time.Since(t0))
	tr.end(id)
	if err != nil {
		run.failure = "start: " + err.Error()
		return run
	}
	run.bytes = bytes
	for f := 1; f < seq.Len(); f++ {
		id := tr.begin("serve.track_step", 0, op)
		t0 := time.Now()
		box, _, err := s.svc.Step(ctx, sid, seq.Frames[f], false)
		done := time.Now()
		tr.end(id)
		if err != nil {
			run.failure = "step: " + err.Error()
			break
		}
		run.boxes = append(run.boxes, box)
		run.stepStart = append(run.stepStart, t0)
		run.stepDone = append(run.stepDone, done)
	}
	if !s.svc.Stop(sid) && run.failure == "" {
		run.failure = "stop: session was already gone"
	}
	return run
}

// offline tracks a sequence with no service in between: the reference.
func offline(tr *track.Tracker, seq dataset.Sequence) ([]detect.Box, error) {
	zf, err := tr.ExemplarFeaturesFor(seq.Frames[0], seq.Boxes[0])
	if err != nil {
		return nil, err
	}
	box := seq.Boxes[0]
	var out []detect.Box
	for f := 1; f < seq.Len(); f++ {
		if box, err = tr.StepBoxE(zf, seq.Frames[f], box); err != nil {
			return nil, err
		}
		out = append(out, box)
	}
	return out, nil
}

// sameBoxes reports bitwise equality of two trajectories.
func sameBoxes(a, b []detect.Box) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !sameBox(a[i], b[i]) {
			return false
		}
	}
	return true
}

// runSessions keeps s.sessions closed-loop sessions going for d, and in any
// case until every sequence has been tracked once (so that the digest
// covers them all however short the run). Worker w takes sequences w,
// w+sessions, ... round and round.
func (s *trackSys) runSessions(ctx context.Context, seqs []dataset.Sequence, d time.Duration, tr *tracer) []sessionRun {
	deadline := time.Now().Add(d)
	minEach := (len(seqs) + s.sessions - 1) / s.sessions
	perWorker := make([][]sessionRun, s.sessions)
	var wg sync.WaitGroup
	for w := 0; w < s.sessions; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for n := 0; n < minEach || time.Now().Before(deadline); n++ {
				id := (w + n*s.sessions) % len(seqs)
				perWorker[w] = append(perWorker[w], s.session(ctx, id, seqs[id], tr))
			}
		}(w)
	}
	wg.Wait()
	var all []sessionRun
	for _, runs := range perWorker {
		all = append(all, runs...)
	}
	return all
}

// trackCheck verifies trajectories: pinned sequences equal the offline
// loop on a second tracker, and every sequence repeats its first
// trajectory bit for bit whichever other session it shared a batch with.
type trackCheck struct {
	first map[int][]detect.Box
	ref   map[int][]detect.Box
}

// judge counts a batch of sessions on r: every Start and Step is an op.
func (c *trackCheck) judge(r *result, runs []sessionRun, length int, corrupt bool) {
	for i, run := range runs {
		ops := int64(length) // Start plus length-1 Steps
		r.Attempted += ops
		boxes := run.boxes
		if corrupt && i == 0 && len(boxes) > 0 {
			boxes = append([]detect.Box(nil), boxes...)
			boxes[len(boxes)-1].W += 1e-9
		}
		why := run.failure
		if want, ok := c.ref[run.seq]; why == "" && ok && !sameBoxes(boxes, want) {
			why = "trajectory differs from the offline tracker's"
		}
		if first, ok := c.first[run.seq]; why == "" && ok && !sameBoxes(boxes, first) {
			why = "trajectory differs from the sequence's first run"
		}
		if why != "" {
			r.Failed += ops
			if r.Failed <= 3*ops {
				fmt.Printf("  session on sequence %d failed: %s\n", run.seq, why)
			}
			continue
		}
		if _, ok := c.first[run.seq]; !ok {
			c.first[run.seq] = boxes
		}
	}
}

// digest folds each sequence's trajectory in sequence order.
func (c *trackCheck) digest() string {
	ids := make([]int, 0, len(c.first))
	for id := range c.first {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	d := newDigest()
	for _, id := range ids {
		for _, b := range c.first[id] {
			d.box(b, 0)
		}
	}
	return d.String()
}

func runTrack(ctx context.Context, rc runConfig) (*result, error) {
	r := newResult("track-sessions", rc)
	sz := trackSizes(rc.toy)
	seqs := sz.sequences(rc.seed)

	var tr *tracer
	if rc.trace {
		tr = newTracer()
	}
	sys, setups, err := repeatSetup(rc,
		func() (*trackSys, error) { return startTrack(ctx, sz, seqs[0]) },
		func(s *trackSys) error { s.svc.Close(); return nil })
	if err != nil {
		return nil, err
	}
	t := tally{setups: setups}
	defer sys.svc.Close()
	if sys.sessions > clientLimit() {
		r.invalidate("%d sessions on %d cores", sys.sessions, clientLimit())
	}

	refTracker := newTracker(sz)
	check := &trackCheck{first: map[int][]detect.Box{}, ref: map[int][]detect.Box{}}
	for _, id := range []int{0, len(seqs) / 2} {
		boxes, err := offline(refTracker, seqs[id])
		if err != nil {
			return nil, fmt.Errorf("offline reference: %w", err)
		}
		check.ref[id] = boxes
	}

	if rc.trace {
		if err := traceTrack(ctx, r, rc, sz, sys, seqs, check, refTracker, tr); err != nil {
			return nil, err
		}
		r.Digest = check.digest()
		return r, nil
	}

	phase := rc.share(trackShare)
	before := markMem()
	phaseStart := time.Now()
	runs := sys.runSessions(ctx, seqs, phase, nil)
	t.mem = before.until(markMem())
	check.judge(r, runs, sz.length, rc.corrupt)
	t.ops = r.Attempted

	var done []time.Time
	for _, run := range runs {
		for i, at := range run.stepDone {
			done = append(done, at)
			t.latencies = append(t.latencies, ms(at.Sub(run.stepStart[i])))
		}
	}
	t.roundRate = roundRates(done, phaseStart, phase, trackRounds)
	r.Samples["sessions"] = len(runs)
	r.Digest = check.digest()
	return r, r.endToEnd(&t)
}

// xcorrBackends are the three cross-correlation lowerings, the tracker's
// default first, timed side by side so the prune-by-evidence item has numbers.
var xcorrBackends = []struct {
	name string
	fn   func(z, x *tensor.Tensor) (*tensor.Tensor, error)
}{
	{"track.xcorr", track.DWXCorrE},
	{"track.xcorr_naive", track.DWXCorrNaive},
	{"track.xcorr_int8", track.DWXCorrInt8},
}

// crop4 wraps a [3,s,s] crop as the [1,3,s,s] batch the backbone takes.
func crop4(c *tensor.Tensor) *tensor.Tensor { return c.Reshape(1, c.Dim(0), c.Dim(1), c.Dim(2)) }

// traceTrack is the traced run: sessions with a span on every Start and
// Step (and slices with tracing off, for the overhead), then the tracker's
// step taken apart through its public pieces.
func traceTrack(ctx context.Context, r *result, rc runConfig, sz trackSize, sys *trackSys, seqs []dataset.Sequence, check *trackCheck, ref *track.Tracker, tr *tracer) error {
	watch := watchGoroutines()
	before := markMem()
	slice := rc.share(0.08)
	var tracedRate, plainRate []float64
	var sessionBytes, stepMS []float64
	for n := 0; n < 4; n++ {
		on := n%2 == 0
		tr.on.Store(on)
		t0 := time.Now()
		runs := sys.runSessions(ctx, seqs, slice, tr)
		wall := time.Since(t0)
		tr.on.Store(true)
		check.judge(r, runs, sz.length, rc.corrupt && n == 0)
		steps := 0
		for _, run := range runs {
			steps += len(run.stepDone)
			sessionBytes = append(sessionBytes, float64(run.bytes))
			for i, done := range run.stepDone {
				stepMS = append(stepMS, ms(done.Sub(run.stepStart[i])))
			}
		}
		rate := float64(steps) / wall.Seconds()
		if on {
			tracedRate = append(tracedRate, rate)
		} else {
			plainRate = append(plainRate, rate)
		}
	}
	r.runtimeMetrics(before.until(markMem()), r.Attempted, watch.halt())
	r.set("trace.overhead_share", 1-median(tracedRate)/median(plainRate), "ratio")
	tm := sys.svc.Metrics()
	for _, st := range tm.Stages {
		if st.Batches > 0 {
			r.set("serve.track_mean_batch_size", float64(st.Items)/float64(st.Batches), "count")
		}
	}
	r.set("serve.track_bytes_per_session", median(sessionBytes), "B")
	r.timings(append(tracedRate, plainRate...), stepMS)

	// A few sessions alone through the service, each followed by the same
	// steps taken directly on the reference tracker, piece by piece.
	var viaService, startMS, exemplar, crop, bb, step, other []float64
	xcorr := map[string][]float64{}
	for s := 0; s < min(rc.reps(8), len(seqs)); s++ {
		seq := seqs[s]
		alone := sys.session(ctx, s, seq, tr)
		check.judge(r, []sessionRun{alone}, sz.length, false)
		startMS = append(startMS, alone.startMS)
		for i, done := range alone.stepDone {
			viaService = append(viaService, ms(done.Sub(alone.stepStart[i])))
		}

		box := seq.Boxes[0]
		id := tr.begin("track.exemplar", 0, int64(s))
		t0 := time.Now()
		zf, err := ref.ExemplarFeaturesFor(seq.Frames[0], box)
		exemplar = append(exemplar, ms(time.Since(t0)))
		tr.end(id)
		if err != nil {
			return fmt.Errorf("exemplar probe: %w", err)
		}
		for f := 1; f < seq.Len(); f++ {
			frame := seq.Frames[f]
			op := int64(s*seq.Len() + f)
			sid := tr.begin("track.step", 0, op)
			t0 := time.Now()
			next, err := ref.StepBoxE(zf, frame, box)
			step = append(step, ms(time.Since(t0)))
			tr.end(sid)
			if err != nil {
				return fmt.Errorf("step probe: %w", err)
			}

			// The same step's pieces, one public call each.
			pid := tr.begin("track.step_pieces", 0, op)
			id := tr.begin("track.search_crop", pid, op)
			t0 = time.Now()
			c, _ := ref.SearchCrop(frame, box, box.CX, box.CY)
			crop = append(crop, ms(time.Since(t0)))
			tr.end(id)

			id = tr.begin("track.backbone", pid, op)
			t0 = time.Now()
			feat := ref.Adjust.Forward([]*tensor.Tensor{ref.Backbone.Forward(crop4(c), false)}, false)
			bb = append(bb, ms(time.Since(t0)))
			tr.end(id)
			xf := feat.Reshape(feat.Dim(1), feat.Dim(2), feat.Dim(3))

			for _, backend := range xcorrBackends {
				id = tr.begin(backend.name, pid, op)
				t0 = time.Now()
				_, err := backend.fn(zf, xf)
				xcorr[backend.name] = append(xcorr[backend.name], ms(time.Since(t0)))
				tr.end(id)
				if err != nil {
					return fmt.Errorf("%s probe: %w", backend.name, err)
				}
			}
			tr.end(pid)
			n := len(step) - 1
			other = append(other, step[n]-crop[n]-bb[n]-xcorr["track.xcorr"][n])
			box = next
		}
	}
	r.set("serve.track_start_ms", median(startMS), "ms")
	r.set("track.exemplar_ms", median(exemplar), "ms")
	r.set("track.search_crop_ms", median(crop), "ms")
	r.set("track.backbone_ms", median(bb), "ms")
	for _, backend := range xcorrBackends {
		r.set(backend.name+"_ms", median(xcorr[backend.name]), "ms")
	}
	r.set("track.step_ms", median(step), "ms")
	r.set("track.step_other_ms", median(other), "ms") // step by step, so both sides saw the same machine
	r.set("serve.track_step_overhead_ms", median(viaService)-median(step), "ms")
	r.Samples["track_steps_direct"] = len(step)

	// The backbone's own ledger, on search crops.
	var crops []*tensor.Tensor
	for _, seq := range seqs[:min(4, len(seqs))] {
		c, _ := ref.SearchCrop(seq.Frames[1], seq.Boxes[0], seq.Boxes[1].CX, seq.Boxes[1].CY)
		crops = append(crops, c)
	}
	probeInputs(r, rc, sceneConfig(sz.side, sz.side, rc.seed), func() *nn.Graph { return newTracker(sz).Backbone }, tr)
	probeNN(r, rc, ref.Backbone, crops, tr)
	probeTensor(r, rc, ref.Backbone, false, tr)

	path, err := tr.write(rc.outDir, r.Workload, rc.seed)
	if err != nil {
		return err
	}
	r.TraceFile = path
	return nil
}
