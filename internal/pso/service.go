package pso

// Search-as-a-service: a job API over the measured-fitness search.
//
//	POST /search/jobs          submit a JobSpec; idempotent by content
//	GET  /search/jobs          list job statuses
//	GET  /search/jobs/{id}     one job's status
//	GET  /search/jobs/{id}/result  the finished job's best candidate
//	GET  /metrics              service counters + per-particle eval latency
//
// A job's ID is the digest of its canonical spec, so resubmitting the same
// spec returns the same job instead of relaunching the search, and the
// checkpoint file <id>.ckpt in the service directory survives process
// death: a restarted service resumes a resubmitted job from its last
// completed iteration and — because the evaluator state (engine factors +
// accuracy cache) rides in the checkpoint — finishes with the bitwise
// trajectory of a never-killed run.

import (
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"net/http"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"skynet/internal/bundle"
	"skynet/internal/dataset"
	"skynet/internal/fpga"
	"skynet/internal/modelspec"
	"skynet/internal/serve"
)

// JobSpec is the submit payload and the design flow's Stage 2: the search
// Config, whose search fields are the wire's members, plus the data its
// evaluator is built from. Everything is canonicalized by normalize, so two
// specs that differ only in defaulted fields get the same job ID.
type JobSpec struct {
	Config

	// W and H size the synthetic dataset; TrainN/ValN the split.
	W         int `json:"w,omitempty"`
	H         int `json:"h,omitempty"`
	TrainN    int `json:"train_n,omitempty"`
	ValN      int `json:"val_n,omitempty"`
	BatchSize int `json:"batch_size,omitempty"`

	// Factors pins the engine calibration; zero measures at job start.
	Factors EngineFactors `json:"factors,omitempty"`
}

// normalize fills every member left zero with its default. Like
// Config.normalize it does not clamp, so Check sees what was asked.
func (j *JobSpec) normalize() {
	j.Config.normalize()
	if j.Groups <= 0 {
		j.Groups = 2
	}
	if j.PerGroup <= 0 {
		j.PerGroup = 4
	}
	if j.Iterations <= 0 {
		j.Iterations = 4
	}
	if j.W <= 0 {
		j.W = 48
	}
	if j.H <= 0 {
		j.H = 24
	}
	if j.TrainN <= 0 {
		j.TrainN = 8
	}
	if j.ValN <= 0 {
		j.ValN = 4
	}
	if j.BatchSize <= 0 {
		j.BatchSize = 4
	}
	if len(j.Beta) == 0 {
		j.Beta = map[string]float64{PlatformFPGA: 2, PlatformGPU: 1, PlatformCPUInt8: 1}
	}
	if len(j.TargetMS) == 0 {
		j.TargetMS = map[string]float64{PlatformFPGA: 10, PlatformGPU: 5, PlatformCPUInt8: 50}
	}
	if j.Alpha == 0 {
		j.Alpha = 0.01
	}
}

// ID is the job's content identity: the FNV digest of the canonical JSON
// form (encoding/json sorts map keys, normalize fills defaults). The
// in-process knobs, Workers among them, are not on the wire and so not in
// the ID. It is not Config.Digest, the checkpoint's validity hash: every
// <id>.ckpt on disk is named by this one.
func (j JobSpec) ID() string {
	j.normalize()
	b, err := json.Marshal(j)
	if err != nil {
		// Unreachable: every wire member is marshalable, and the func
		// fields are not on the wire.
		panic(err)
	}
	h := fnv.New64a()
	_, _ = h.Write(b) // hash.Hash.Write never fails
	return fmt.Sprintf("job-%016x", h.Sum64())
}

// NewEvaluator builds the job's measured-fitness evaluator.
func (j JobSpec) NewEvaluator() *EngineEvaluator {
	j.normalize()
	dcfg := dataset.DefaultConfig()
	dcfg.W, dcfg.H = j.W, j.H
	return &EngineEvaluator{
		Gen:    dataset.NewGenerator(dcfg),
		TrainN: j.TrainN, ValN: j.ValN,
		BatchSize: j.BatchSize,
		Seed:      j.Seed,
		Factors:   j.Factors,
	}
}

// JobStatus is the status payload.
type JobStatus struct {
	ID              string  `json:"id"`
	State           string  `json:"state"`              // queued | running | done | failed
	Position        int     `json:"position,omitempty"` // a queued job's place in line: 1 runs next
	IterationsDone  int     `json:"iterations_done"`
	IterationsTotal int     `json:"iterations_total"`
	BestFit         float64 `json:"best_fit,omitempty"`
	CacheHits       int64   `json:"cache_hits"`
	CacheMisses     int64   `json:"cache_misses"`
	Resumed         bool    `json:"resumed,omitempty"`
	Error           string  `json:"error,omitempty"`
}

// JobResult is the result payload of a finished job.
type JobResult struct {
	ID          string              `json:"id"`
	Best        Particle            `json:"best"`
	History     []float64           `json:"history"`
	Factors     EngineFactors       `json:"factors"`
	Op          fpga.OperatingPoint `json:"operating_point"`
	CacheHits   int64               `json:"cache_hits"`
	CacheMisses int64               `json:"cache_misses"`
}

// job is the service's record of one search.
type job struct {
	spec JobSpec
	eval *EngineEvaluator // nil once the job has run, as is ck
	ck   *Checkpoint      // where a queued job resumes from; nil starts it afresh

	mu     sync.Mutex
	status JobStatus
	result *JobResult
}

// Service runs measured-fitness searches as resumable jobs, one at a time in
// the order they were queued: a search already takes every core.
type Service struct {
	dir string

	mu      sync.Mutex
	jobs    map[string]*job
	queue   []*job      // the jobs waiting to run, first in line first
	running bool        // drain is running the queue
	closed  atomic.Bool // Close has begun: refuse submissions, start no queued job
	drained sync.WaitGroup

	evalHist *serve.Histogram
}

// NewService creates a search service whose checkpoints live in dir.
func NewService(dir string) *Service {
	return &Service{dir: dir, jobs: map[string]*job{}, evalHist: serve.NewHistogram()}
}

// CheckpointPath is where the job's per-iteration checkpoint is written.
func (s *Service) CheckpointPath(id string) string {
	return filepath.Join(s.dir, id+".ckpt")
}

// errBadSpec marks a job spec Check refuses (HTTP 400); errClosed, a Submit or
// the running job's next checkpoint once Close has begun (HTTP 503).
var errBadSpec, errClosed = errors.New("pso: bad job spec"), errors.New("pso: service closed")

// The most one job may ask of the process, beyond the slot and channel limits
// modelspec's Spec.Build enforces: the synthetic dataset's frame (W·H; the
// paper's 160×320 fits), its train and validation splits, and the search.
const maxFramePixels, maxSamples, maxBatchSize, maxPerGroup, maxIterations = 1 << 16, 1024, 256, 64, 1000

// Check refuses a search the process cannot run as asked: one that would
// panic, exhaust memory, score every candidate zero or quietly search
// something else. It is the service's admission check, on a normalized spec,
// and the design flow's (core.Run), on the flow's values as given; the error
// names the first value out of range.
func (j JobSpec) Check() error {
	for _, b := range []struct {
		name      string
		v, lo, hi int
	}{
		// A group replicates one of the enumerated Bundles.
		{"groups", j.Groups, 1, len(bundle.Enumerate())},
		{"per_group", j.PerGroup, 1, maxPerGroup},
		{"iterations", j.Iterations, 1, maxIterations},
		{"slots", j.Slots, 1, modelspec.MaxSlots},
		{"pools", j.Pools, 1, j.Slots},
		{"channel_min", j.ChannelMin, 1, modelspec.MaxChannels - 1},
		{"channel_max", j.ChannelMax, j.ChannelMin + 1, modelspec.MaxChannels},
		{"w", j.W, 1, maxFramePixels},
		{"h", j.H, 1, maxFramePixels},
		{"train_n", j.TrainN, 1, maxSamples},
		{"val_n", j.ValN, 1, maxSamples},
		{"batch_size", j.BatchSize, 1, maxBatchSize},
	} {
		if b.v < b.lo || b.v > b.hi {
			return fmt.Errorf("%w: %s %d out of range [%d, %d]", errBadSpec, b.name, b.v, b.lo, b.hi)
		}
	}
	if j.W*j.H > maxFramePixels { // both sides are in range: no product overflows
		return fmt.Errorf("%w: %d×%d frames, over %d pixels", errBadSpec, j.W, j.H, maxFramePixels)
	}
	// Every 2×2 pooling halves the map and the last must leave a pixel: the
	// candidates pool Pools times, the reference network the engine factors
	// are measured on as often as its spec says.
	pools := max(j.Pools, len((&EngineEvaluator{}).referenceSpec().PoolPos))
	if side := 1 << pools; j.W < side || j.H < side {
		return fmt.Errorf("%w: %d×%d frames, but %d poolings need ≥ %d×%d", errBadSpec, j.W, j.H, pools, side, side)
	}
	return nil
}

// Submit queues (or joins) the job for the spec. Submission is idempotent:
// the same spec maps to the same job ID, a queued, running or finished job is
// returned as-is, and a checkpoint left by a killed process resumes instead
// of restarting. A failed job is dropped and its spec queued again, at the
// back, so a job a transient fault stopped resumes from its last checkpoint.
// A spec the process cannot run (JobSpec.Check) is refused, as is any after Close.
func (s *Service) Submit(spec JobSpec) (JobStatus, error) {
	if s.closed.Load() {
		return JobStatus{}, errClosed
	}
	spec.normalize()
	if err := spec.Check(); err != nil {
		return JobStatus{}, err
	}
	id := spec.ID()
	if st, ok := s.Status(id); ok && st.State != "failed" {
		return st, nil
	}
	// The checkpoint is read before the job is registered: a job whose
	// checkpoint cannot be read never enters the table.
	var ck *Checkpoint
	if loaded, err := LoadCheckpoint(s.CheckpointPath(id)); err == nil {
		ck = &loaded
	} else if !errors.Is(err, os.ErrNotExist) {
		return JobStatus{}, fmt.Errorf("pso: checkpoint for %s is unreadable: %w", id, err)
	}
	jb := &job{spec: spec, eval: spec.NewEvaluator(), ck: ck}
	jb.status = JobStatus{ID: id, State: "queued", IterationsTotal: spec.Iterations}
	if ck != nil {
		jb.status.Resumed, jb.status.IterationsDone = true, ck.Iter
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if live, ok := s.jobs[id]; ok { // a concurrent Submit of the same spec registered first, or the job failed
		if st := s.status(live); st.State != "failed" {
			return st, nil
		}
	}
	s.jobs[id] = jb
	s.queue = append(s.queue, jb)
	if !s.running && !s.closed.Load() { // a Submit that raced Close stays queued
		s.running = true
		s.drained.Add(1)
		go s.drain()
	}
	return s.status(jb), nil
}

// drain runs the queued jobs in turn until none is left or Close has begun. A
// job starts running under the table's lock, so statuses never shows two.
func (s *Service) drain() {
	defer s.drained.Done()
	s.mu.Lock()
	for len(s.queue) > 0 && !s.closed.Load() {
		jb := s.queue[0]
		s.queue = s.queue[1:]
		jb.mu.Lock()
		jb.status.State = "running"
		jb.mu.Unlock()
		s.mu.Unlock()
		s.run(jb, jb.eval, jb.ck)
		s.mu.Lock()
	}
	s.running = false
	s.mu.Unlock()
}

// Close refuses submissions from now on, lets the running job save its next
// checkpoint and fail with errClosed (resubmitted, it resumes from there),
// leaves queued jobs unstarted, and returns once no job runs.
func (s *Service) Close() {
	s.mu.Lock()
	s.closed.Store(true) // under mu: no Submit starts drain after this
	s.mu.Unlock()
	s.drained.Wait()
}

// status is jb's status with its place in line, read under s.mu.
func (s *Service) status(jb *job) JobStatus {
	st := jb.Status()
	st.Position = slices.Index(s.queue, jb) + 1
	return st
}

// run searches the job's spec with eval — the job's own evaluator, or one
// wrapping it — and records the outcome on the job, which then keeps no
// evaluator (its datasets and accuracy cache) and no checkpoint.
func (s *Service) run(jb *job, eval Evaluator, ck *Checkpoint) {
	cfg, own := jb.spec.Config, jb.eval
	cfg.EvalObserver = func(d time.Duration) { s.evalHist.Observe(d) }
	cfg.Progress = func(itr int, best Particle) {
		hits, misses := own.CacheStats()
		jb.mu.Lock()
		jb.status.State = "running"
		jb.status.IterationsDone = itr + 1
		jb.status.BestFit = best.Fit
		jb.status.CacheHits, jb.status.CacheMisses = hits, misses
		jb.mu.Unlock()
	}
	path := s.CheckpointPath(jb.status.ID)
	res, err := SearchFrom(cfg, eval, ck, func(snap Checkpoint) error {
		if err := snap.Save(path); err != nil || !s.closed.Load() {
			return err
		}
		return errClosed
	})
	hits, misses := own.CacheStats()
	jb.mu.Lock()
	defer jb.mu.Unlock()
	jb.eval, jb.ck = nil, nil
	jb.status.CacheHits, jb.status.CacheMisses = hits, misses
	if err != nil {
		jb.status.State = "failed"
		jb.status.Error = err.Error()
		return
	}
	jb.status.State = "done"
	jb.status.IterationsDone = cfg.Iterations
	jb.status.BestFit = res.Best.Fit
	jb.result = &JobResult{
		ID:      jb.status.ID,
		Best:    res.Best,
		History: res.History,
		Factors: own.Factors,
		// The operating point couples the winner's FPGA estimate with the
		// int8 accuracy it was actually selected on — not a re-measurement
		// at the final epoch budget, which could differ if the best
		// surfaced in an earlier iteration.
		Op:        own.priceOf(res.Best.Net).Report.WithAccuracy(res.Best.QuantAcc),
		CacheHits: hits, CacheMisses: misses,
	}
}

// Status implements the job's mutex discipline for readers.
func (jb *job) Status() JobStatus {
	jb.mu.Lock()
	defer jb.mu.Unlock()
	return jb.status
}

// Status returns the job's status, or false if the ID is unknown.
func (s *Service) Status(id string) (JobStatus, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	jb, ok := s.jobs[id]
	if !ok {
		return JobStatus{}, false
	}
	return s.status(jb), true
}

// Result returns the finished job's result; ok is false while the job is
// still running or when the ID is unknown.
func (s *Service) Result(id string) (JobResult, bool) {
	s.mu.Lock()
	jb, ok := s.jobs[id]
	s.mu.Unlock()
	if !ok {
		return JobResult{}, false
	}
	jb.mu.Lock()
	defer jb.mu.Unlock()
	if jb.result == nil {
		return JobResult{}, false
	}
	return *jb.result, true
}

// ServiceMetrics is the /metrics payload: job counts by state, the
// evaluation-cache counters summed over jobs, and the per-particle
// evaluation latency digest from the serving tier's histogram.
type ServiceMetrics struct {
	Jobs        map[string]int       `json:"jobs"`
	CacheHits   int64                `json:"cache_hits"`
	CacheMisses int64                `json:"cache_misses"`
	EvalLatency serve.LatencySummary `json:"eval_latency"`
}

// Metrics snapshots the service counters.
func (s *Service) Metrics() ServiceMetrics {
	m := ServiceMetrics{Jobs: map[string]int{}, EvalLatency: s.evalHist.Summary()}
	for _, st := range s.statuses() {
		m.Jobs[st.State]++
		m.CacheHits += st.CacheHits
		m.CacheMisses += st.CacheMisses
	}
	return m
}

// statuses returns every job's status in sorted-ID order, read under the
// table's lock.
func (s *Service) statuses() []JobStatus {
	s.mu.Lock()
	defer s.mu.Unlock()
	ids := make([]string, 0, len(s.jobs))
	for id := range s.jobs {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	out := make([]JobStatus, 0, len(ids))
	for _, id := range ids {
		out = append(out, s.status(s.jobs[id]))
	}
	return out
}

// Handler exposes the job API.
func (s *Service) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /search/jobs", s.handleSubmit)
	mux.HandleFunc("GET /search/jobs", s.handleList)
	mux.HandleFunc("GET /search/jobs/{id}", s.handleStatus)
	mux.HandleFunc("GET /search/jobs/{id}/result", s.handleResult)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	return mux
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	// A write failure here means the client went away; there is no one
	// left to report it to.
	_ = json.NewEncoder(w).Encode(v)
}

// maxSpecBytes caps a job spec body: a spec is a few hundred bytes of JSON,
// and the decoder would otherwise buffer a value of any size whole.
const maxSpecBytes = 1 << 20

func (s *Service) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var spec JobSpec
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxSpecBytes)).Decode(&spec); err != nil {
		status := http.StatusBadRequest
		if tooBig := (*http.MaxBytesError)(nil); errors.As(err, &tooBig) {
			status = http.StatusRequestEntityTooLarge
		}
		http.Error(w, "bad job spec: "+err.Error(), status)
		return
	}
	switch st, err := s.Submit(spec); {
	case errors.Is(err, errBadSpec):
		http.Error(w, err.Error(), http.StatusBadRequest)
	case errors.Is(err, errClosed):
		http.Error(w, err.Error(), http.StatusServiceUnavailable)
	case err != nil:
		http.Error(w, err.Error(), http.StatusInternalServerError)
	default:
		writeJSON(w, http.StatusAccepted, st)
	}
}

func (s *Service) handleList(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.statuses())
}

func (s *Service) handleStatus(w http.ResponseWriter, r *http.Request) {
	st, ok := s.Status(r.PathValue("id"))
	if !ok {
		http.Error(w, "unknown job", http.StatusNotFound)
		return
	}
	writeJSON(w, http.StatusOK, st)
}

func (s *Service) handleResult(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	res, ok := s.Result(id)
	if !ok {
		if st, known := s.Status(id); known {
			writeJSON(w, http.StatusConflict, st) // not finished yet
			return
		}
		http.Error(w, "unknown job", http.StatusNotFound)
		return
	}
	writeJSON(w, http.StatusOK, res)
}

func (s *Service) handleMetrics(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.Metrics())
}
