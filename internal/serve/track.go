package serve

// Tracking-as-a-service: the paper's §7 extension (SiamRPN++/SiamMask
// tracking, Tables 8/9) as a streaming workload instead of an offline
// batch experiment. POST /track/start fixes a template (one
// ExemplarFeaturesInto forward) and returns a session ID; subsequent frame
// posts return per-frame boxes (and, for mask-head trackers, the peak mask
// patch) by driving StepE through a lane of its own — the
// machine the detection engine runs on, here with one worker. Sessions live in a bounded table with TTL
// eviction — millions of concurrent sessions means per-session state must
// be compact, so the table measures bytes/session and /metrics reports it.
// A stopped session's record and template go on a free list for the next
// Start to write in place, so a warm session allocates only its ID.
//
// Per-frame inference for one session is serialized by a per-session lock
// (frames of a stream are causally ordered: each step consumes the
// previous step's box), while distinct sessions interleave on the lane's one
// worker, a step at a time — a step is one crop through the backbone, so
// there is nothing a batch would amortise and nobody waits for a partner.
// Results are byte-identical to the offline Tracker.Track loop regardless of
// interleaving, because every step is a pure function of (template, frame,
// box) that writes nothing of the tracker but a workspace of its own. A
// frame whose pixels overflow the forward is a 400 and leaves the session's
// box as it was.

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"skynet/internal/detect"
	"skynet/internal/pipeline"
	"skynet/internal/tensor"
	"skynet/internal/track"
)

// Sentinel errors of the tracking service.
var (
	// ErrBadTrackRequest marks a malformed session request (bad tensor
	// shape, degenerate box, geometry the tracker rejects) — HTTP 400.
	ErrBadTrackRequest = errors.New("serve: bad tracking request")
	// ErrNoSession means the session ID is unknown or already evicted —
	// HTTP 404.
	ErrNoSession = errors.New("serve: unknown or expired session")
	// ErrSessionTableFull means the bounded session table has no room for
	// a new session — HTTP 429; retry after TTL pressure clears.
	ErrSessionTableFull = errors.New("serve: session table full")
	// ErrTracking wraps an unexpected (panicking) tracker failure — HTTP 500.
	ErrTracking = errors.New("serve: tracking failed")
)

// TrackConfig tunes a TrackService. The zero value selects
// serving-appropriate defaults.
type TrackConfig struct {
	// MaxSessions bounds the session table; 0 selects 1024. A full table
	// rejects new sessions with ErrSessionTableFull.
	MaxSessions int
	// TTL is how long an idle session survives before eviction; 0 selects
	// 5 minutes.
	TTL time.Duration
	// SweepEvery is the janitor period; 0 selects TTL/4 (bounded to
	// [100ms, 30s]).
	SweepEvery time.Duration
	// QueueDepth bounds the admission queue; 0 selects 64.
	QueueDepth int
	// RequestTimeout is the per-frame deadline applied when the caller's
	// context has none; 0 selects 5s. Negative disables the default.
	RequestTimeout time.Duration
}

func (c *TrackConfig) normalize() {
	if c.MaxSessions <= 0 {
		c.MaxSessions = 1024
	}
	if c.TTL <= 0 {
		c.TTL = 5 * time.Minute
	}
	if c.SweepEvery <= 0 {
		c.SweepEvery = c.TTL / 4
		if c.SweepEvery < 100*time.Millisecond {
			c.SweepEvery = 100 * time.Millisecond
		}
		if c.SweepEvery > 30*time.Second {
			c.SweepEvery = 30 * time.Second
		}
	}
	laneDefaults(&c.QueueDepth, &c.RequestTimeout)
}

// session is one tracked object's state between frames: the template
// features and the last box. mu serializes the session's frames and guards
// the other fields; lastNS feeds TTL eviction. Stop clears id and recycles
// the record, unless lent: an abandoned step's forward may still read zf.
type session struct {
	id     string
	mu     sync.Mutex
	zf     *tensor.Tensor
	box    detect.Box
	lent   bool
	lastNS atomic.Int64
}

// sessionOverheadBytes estimates the fixed per-session cost beyond the
// template tensor: the session struct, its ID string, and the table's map
// entry. Kept as an explicit constant so the bytes/session metric stays
// honest about what it counts.
const sessionOverheadBytes = 192

func (s *session) touch() { s.lastNS.Store(time.Now().UnixNano()) }

// trackOp is the kind of work one tracking request carries.
type trackOp int

const (
	opStart trackOp = iota
	opStep
)

// trackReq is one tracking call's record, riding the service's lane.
type trackReq struct {
	ticket
	op       trackOp
	frame    *tensor.Tensor
	box      detect.Box     // init box (start) or previous box (step)
	zf       *tensor.Tensor // the template: read by a step, written by a start (and replaced if nil or other-shaped)
	withMask bool

	// results, owned by the worker
	outBox  detect.Box
	outMask *tensor.Tensor
}

var trackReqs = tensor.FreeList[trackReq]{Alloc: func() *trackReq { return &trackReq{ticket: newTicket()} }}

// putTrackReq recycles req, dropping what it references, unless err says
// the lane may still hold it (see reusable).
//
//skynet:hotpath
func putTrackReq(req *trackReq, err error) {
	if !reusable(err) {
		return
	}
	*req = trackReq{ticket: ticket{done: req.done, alarm: req.alarm}}
	trackReqs.Put(req)
}

// TrackService exposes one Siamese tracker as a stateful concurrent
// service: a lane (admission, deadline, drain/close) plus the session
// table, its TTL janitor and per-session serialisation. Create with
// NewTrackService, stop with Drain or Close; Handler is its HTTP door.
type TrackService struct {
	lane[*trackReq]
	cfg TrackConfig
	tr  *track.Tracker

	mu       sync.RWMutex // guards sessions
	sessions map[string]*session
	free     tensor.FreeList[session] // stopped sessions' records

	hist    Histogram
	nextID  atomic.Int64
	started atomic.Int64
	stepped atomic.Int64
	failed  atomic.Int64
	reject  atomic.Int64
	evicted atomic.Int64
}

// NewTrackService starts the tracking lane around one tracker, driven from
// the lane's one worker one request at a time. The tracker's steps are safe
// for concurrent use, so its owner may also step it directly.
func NewTrackService(tr *track.Tracker, cfg TrackConfig) (*TrackService, error) {
	if tr == nil {
		return nil, errors.New("serve: tracker is required")
	}
	cfg.normalize()
	s := &TrackService{
		cfg:      cfg,
		tr:       tr,
		sessions: make(map[string]*session),
		free:     tensor.FreeList[session]{Alloc: func() *session { return &session{} }},
	}
	s.start(1, cfg.QueueDepth, cfg.RequestTimeout, 1, func(_ int, batch []*trackReq) {
		for _, req := range batch {
			if req.live() {
				req.err = s.inferOne(req)
			}
		}
	})
	go s.sweep()
	return s, nil
}

// validateTrackReq performs the cheap checks a request must pass before it
// may take a queue slot; geometry the tracker itself rejects is caught again
// (as an error, not a panic) on the worker.
func validateTrackReq(r *trackReq) error {
	if r.frame == nil || r.frame.Rank() != 3 || r.frame.Dim(0) != 3 {
		return fmt.Errorf("%w: frame must be a [3,H,W] tensor", ErrBadTrackRequest)
	}
	return nil
}

// inferOne executes one tracking op on the lane's worker, converting
// tracker errors into 400-class failures and panics into ErrTracking, so a
// poisoned request can never take down the worker.
func (s *TrackService) inferOne(req *trackReq) (err error) {
	defer func() {
		if rec := recover(); rec != nil {
			err = fmt.Errorf("%w: panic: %v", ErrTracking, rec)
		}
	}()
	switch req.op {
	case opStart:
		zf, zerr := s.tr.ExemplarFeaturesInto(req.zf, req.frame, req.box)
		if zerr != nil {
			return fmt.Errorf("%w: %v", ErrBadTrackRequest, zerr)
		}
		req.zf = zf
	case opStep:
		box, mask, serr := s.tr.StepE(req.zf, req.frame, req.box, req.withMask)
		if serr != nil {
			return fmt.Errorf("%w: %v", ErrBadTrackRequest, serr)
		}
		req.outBox, req.outMask = box, mask
	}
	return nil
}

// submit validates one request on the caller's goroutine — a malformed one
// never takes a queue slot — and rides it through the lane.
func (s *TrackService) submit(ctx context.Context, req *trackReq) error {
	err := validateTrackReq(req)
	if err == nil {
		err = s.ride(ctx, req)
	}
	switch {
	case err == nil:
		s.hist.Observe(time.Since(req.enq))
	case errors.Is(err, ErrOverloaded):
		s.reject.Add(1)
	case !errors.Is(err, ErrDraining):
		s.failed.Add(1)
	}
	return err
}

// Start fixes a template from one frame and its initial box, creating a
// session on a recycled record whose template the forward writes in place.
// It returns the session ID and the session's measured resident bytes
// (template tensor + fixed overhead).
func (s *TrackService) Start(ctx context.Context, frame *tensor.Tensor, box detect.Box) (string, int64, error) {
	// Check the bound before paying for a forward; the insert re-checks
	// under the lock.
	if !s.roomForSession() {
		s.reject.Add(1)
		return "", 0, ErrSessionTableFull
	}
	sess := s.free.Get()
	req := trackReqs.Get()
	req.op, req.frame, req.box, req.zf = opStart, frame, box, sess.zf // no one else writes a record off the list
	if err := s.submit(ctx, req); err != nil {
		if reusable(err) {
			s.free.Put(sess) // else the worker may still write its zf
		}
		putTrackReq(req, err) // read nothing of an abandoned record: the worker may still write it
		return "", 0, err
	}
	var buf [24]byte // "t-" and any int64: the ID's one allocation is its string
	id := string(strconv.AppendInt(append(buf[:0], "t-"...), s.nextID.Add(1), 10))
	size := int64(req.zf.Len()*4) + sessionOverheadBytes
	sess.mu.Lock()
	sess.id, sess.zf, sess.box = id, req.zf, box
	sess.mu.Unlock()
	putTrackReq(req, nil)
	sess.touch()

	// A drain that began while the template forward ran: do not hand out a
	// session that could never be stepped.
	if s.isDraining() {
		s.free.Put(sess)
		return "", 0, ErrDraining
	}
	s.mu.Lock()
	if len(s.sessions) >= s.cfg.MaxSessions {
		s.mu.Unlock()
		s.free.Put(sess)
		s.reject.Add(1)
		return "", 0, ErrSessionTableFull
	}
	s.sessions[id] = sess
	s.mu.Unlock()
	s.started.Add(1)
	return id, size, nil
}

// roomForSession reports whether the table can take one more session,
// evicting expired sessions first if it looks full.
func (s *TrackService) roomForSession() bool {
	s.mu.RLock()
	n := len(s.sessions)
	s.mu.RUnlock()
	if n < s.cfg.MaxSessions {
		return true
	}
	s.evictExpired()
	s.mu.RLock()
	n = len(s.sessions)
	s.mu.RUnlock()
	return n < s.cfg.MaxSessions
}

// lookup returns a live session, lazily evicting it when expired.
func (s *TrackService) lookup(id string) (*session, error) {
	s.mu.RLock()
	sess := s.sessions[id]
	s.mu.RUnlock()
	if sess == nil {
		return nil, ErrNoSession
	}
	if time.Since(time.Unix(0, sess.lastNS.Load())) > s.cfg.TTL {
		s.mu.Lock()
		if s.sessions[id] == sess {
			delete(s.sessions, id)
			s.evicted.Add(1)
		}
		s.mu.Unlock()
		return nil, ErrNoSession
	}
	return sess, nil
}

// Step advances one session by one frame, returning the new box and — for
// mask-head trackers when withMask is set — the peak mask patch. Frames of
// one session are serialized; concurrent Step calls on the same session
// queue on its lock.
func (s *TrackService) Step(ctx context.Context, id string, frame *tensor.Tensor, withMask bool) (detect.Box, *tensor.Tensor, error) {
	sess, err := s.lookup(id)
	if err != nil {
		return detect.Box{}, nil, err
	}
	sess.mu.Lock()
	defer sess.mu.Unlock()
	if sess.id != id { // stopped, its record recycled, since the lookup
		return detect.Box{}, nil, ErrNoSession
	}
	req := trackReqs.Get()
	req.op, req.frame, req.box, req.zf, req.withMask = opStep, frame, sess.box, sess.zf, withMask
	//skynet:nolint lockheld -- blocking under sess.mu is the point: one session's frames are serialized while other sessions proceed; submit is bounded by the request deadline
	if err := s.submit(ctx, req); err != nil {
		sess.lent = sess.lent || !reusable(err) // the worker may still read sess.zf
		putTrackReq(req, err)
		return detect.Box{}, nil, err
	}
	box, mask := req.outBox, req.outMask
	putTrackReq(req, nil)
	sess.box = box
	sess.touch()
	s.stepped.Add(1)
	return box, mask, nil
}

// Stop deletes a session, reporting whether it existed, and recycles its
// record once a step in flight on it has ended.
func (s *TrackService) Stop(id string) bool {
	s.mu.Lock()
	sess := s.sessions[id]
	delete(s.sessions, id)
	s.mu.Unlock()
	if sess != nil {
		sess.mu.Lock()
		sess.id = "" // a Step that looked the session up finds it gone
		if !sess.lent {
			s.free.Put(sess)
		}
		sess.mu.Unlock()
	}
	return sess != nil
}

// evictExpired removes every session idle past the TTL.
func (s *TrackService) evictExpired() {
	cutoff := time.Now().Add(-s.cfg.TTL).UnixNano()
	s.mu.Lock()
	for id, sess := range s.sessions {
		if sess.lastNS.Load() < cutoff {
			delete(s.sessions, id)
			s.evicted.Add(1)
		}
	}
	s.mu.Unlock()
}

// sweep is the TTL janitor goroutine. It stops when the lane's worker has
// exited, which Drain and Close both bring about exactly once.
func (s *TrackService) sweep() {
	t := time.NewTicker(s.cfg.SweepEvery)
	defer t.Stop()
	for {
		select {
		case <-t.C:
			s.evictExpired()
		case <-s.finished:
			return
		}
	}
}

// Drain gracefully shuts the service down: new work is refused with
// ErrDraining, in-flight frames complete, the janitor stops. Idempotent.
func (s *TrackService) Drain(ctx context.Context) error { return s.drain(ctx) }

// Close stops the service now: all but the step in flight fail with ErrDraining.
func (s *TrackService) Close() { s.close() }

// TrackMetrics is the tracking slice of the /metrics snapshot.
type TrackMetrics struct {
	// Sessions is the live session count; SessionCap the table bound.
	Sessions   int `json:"sessions"`
	SessionCap int `json:"session_cap"`

	// Started counts created sessions; Steps served frame advances;
	// Failed per-request errors; Rejected admissions shed (full table or
	// full queue); Evicted TTL evictions.
	Started  int64 `json:"started"`
	Steps    int64 `json:"steps"`
	Failed   int64 `json:"failed"`
	Rejected int64 `json:"rejected"`
	Evicted  int64 `json:"evicted"`

	// MeanSessionBytes is the measured resident footprint per live
	// session (template tensor + fixed overhead) — the compactness number
	// a million-session deployment is sized by.
	MeanSessionBytes int64 `json:"mean_session_bytes"`

	Latency LatencySummary `json:"latency"`

	// Stages is the tracking worker's one stage: a request is its own batch.
	Stages []pipelineStageJSON `json:"stages"`
}

// Metrics snapshots the tracking service's counters.
func (s *TrackService) Metrics() TrackMetrics {
	m := TrackMetrics{
		SessionCap: s.cfg.MaxSessions,
		Started:    s.started.Load(),
		Steps:      s.stepped.Load(),
		Failed:     s.failed.Load(),
		Rejected:   s.reject.Load(),
		Evicted:    s.evicted.Load(),
		Latency:    s.hist.Summary(),
	}
	var bytes int64
	s.mu.RLock()
	m.Sessions = len(s.sessions)
	for _, sess := range s.sessions {
		bytes += int64(sess.zf.Len()*4) + sessionOverheadBytes
	}
	s.mu.RUnlock()
	if m.Sessions > 0 {
		m.MeanSessionBytes = bytes / int64(m.Sessions)
	}
	m.Stages = []pipelineStageJSON{stageJSON(s.work.Stats(pipeline.StageInfer, 1))}
	return m
}

// --- wire types ---
//
// The two requests that carry a frame are what a client marshals; the server
// never unmarshals one whole (readTrackFrame scans the tensor and hands the
// small members to encoding/json one by one).

// TrackStartRequest starts a session: one [3,H,W] frame plus the initial
// box (the GOT-10k one-shot protocol's ground-truth init).
type TrackStartRequest struct {
	Shape []int      `json:"shape"`
	Data  []float32  `json:"data"`
	Box   detect.Box `json:"box"`
}

// TrackStartResponse returns the session handle.
type TrackStartResponse struct {
	Session string `json:"session"`
	// BytesPerSession is the measured resident footprint of this session.
	BytesPerSession int64  `json:"bytes_per_session"`
	Error           string `json:"error,omitempty"`
}

// TrackStepRequest advances a session by one frame. Mask requests the
// SiamMask peak mask patch alongside the box.
type TrackStepRequest struct {
	Session string    `json:"session"`
	Shape   []int     `json:"shape"`
	Data    []float32 `json:"data"`
	Mask    bool      `json:"mask,omitempty"`
}

// TrackStepResponse carries the advanced box (and optional mask patch,
// as shape+data like every tensor on this wire).
type TrackStepResponse struct {
	Box   detect.Box      `json:"box"`
	Mask  *detect.Request `json:"mask,omitempty"`
	Error string          `json:"error,omitempty"`
}

// TrackStopRequest closes a session.
type TrackStopRequest struct {
	Session string `json:"session"`
}

// --- HTTP front end ---

// Handler returns the tracking service's HTTP interface: the /track routes
// on top of the shared ones.
func (s *TrackService) Handler() http.Handler {
	mux := newMux(func() any { return s.Metrics() }, s.isDraining)
	mux.HandleFunc("POST /track/start", s.handleStart)
	mux.HandleFunc("POST /track/step", s.handleStep)
	mux.HandleFunc("POST /track/stop", s.handleStop)
	return mux
}

// ListenAndServe runs the standalone tracking front end on addr until ctx
// is cancelled, then drains: new work is refused, in-flight frames get
// drainTimeout to finish.
func (s *TrackService) ListenAndServe(ctx context.Context, addr string, drainTimeout time.Duration) error {
	return serveUntil(ctx, addr, s.Handler(), drainTimeout, s.Drain)
}

// readTrackFrame reads a frame-carrying tracking request into buf and parses
// it (reqBuf: one read by the request deadline, pixels straight into the
// frame the tracker crops from), handing the members beside the tensor to
// rest. It answers a failure itself, putting the buffer back, and reports
// whether the handler should go on.
func (s *TrackService) readTrackFrame(w http.ResponseWriter, r *http.Request, buf *reqBuf, rest func(key, value []byte) error) (*tensor.Tensor, bool) {
	var frame *tensor.Tensor
	status := http.StatusBadRequest // of a body that does not parse
	err := buf.read(w, r, s.timeout)
	if err != nil {
		status = bodyStatus(err)
	} else {
		frame, err = buf.parse(rest)
	}
	if err != nil {
		putReqBuf(buf)
		writeTrackError(w, status, fmt.Errorf("%w: %v", ErrBadTrackRequest, err))
		return nil, false
	}
	return frame, true
}

// member unmarshals value into v when key names the member, as
// encoding/json matches a field: in any case folding.
func member(key, value []byte, name string, v any) error {
	if !bytes.EqualFold(key, []byte(name)) {
		return nil
	}
	return json.Unmarshal(value, v)
}

func (s *TrackService) handleStart(w http.ResponseWriter, r *http.Request) {
	var box detect.Box
	buf := reqBufs.Get()
	frame, ok := s.readTrackFrame(w, r, buf, func(key, value []byte) error {
		return member(key, value, "box", &box)
	})
	if !ok {
		return
	}
	id, size, err := s.Start(r.Context(), frame, box)
	if reusable(err) {
		putReqBuf(buf)
	}
	if err != nil {
		writeTrackError(w, trackStatus(err), err)
		return
	}
	writeJSON(w, http.StatusOK, TrackStartResponse{Session: id, BytesPerSession: size})
}

func (s *TrackService) handleStep(w http.ResponseWriter, r *http.Request) {
	var (
		session  string
		withMask bool
	)
	buf := reqBufs.Get()
	frame, ok := s.readTrackFrame(w, r, buf, func(key, value []byte) error {
		if err := member(key, value, "session", &session); err != nil {
			return err
		}
		return member(key, value, "mask", &withMask)
	})
	if !ok {
		return
	}
	box, mask, err := s.Step(r.Context(), session, frame, withMask)
	if reusable(err) {
		putReqBuf(buf)
	}
	if err != nil {
		writeTrackError(w, trackStatus(err), err)
		return
	}
	resp := TrackStepResponse{Box: box}
	if mask != nil {
		mr := detect.NewRequest(mask)
		resp.Mask = &mr
	}
	writeJSON(w, http.StatusOK, resp)
}

func (s *TrackService) handleStop(w http.ResponseWriter, r *http.Request) {
	var req TrackStopRequest
	if err := decodeBody(w, r, &req); err != nil {
		writeTrackError(w, bodyStatus(err), fmt.Errorf("%w: %v", ErrBadTrackRequest, err))
		return
	}
	if !s.Stop(req.Session) {
		writeTrackError(w, http.StatusNotFound, ErrNoSession)
		return
	}
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write([]byte("{}\n"))
}

// trackStatus maps service errors onto HTTP statuses; the lane's own
// (overload, drain, deadline) map as they do on the detection door.
func trackStatus(err error) int {
	switch {
	case errors.Is(err, ErrBadTrackRequest):
		return http.StatusBadRequest
	case errors.Is(err, ErrNoSession):
		return http.StatusNotFound
	case errors.Is(err, ErrSessionTableFull):
		return http.StatusTooManyRequests
	}
	return detectStatus(err)
}

func writeTrackError(w http.ResponseWriter, status int, err error) {
	writeJSON(w, status, TrackStepResponse{Error: err.Error()})
}
