package serve

// The pool's HTTP front end — the one detection front door: POST /detect
// and POST /admin/swap (cuts the pool over to a new model generation under
// live load) on top of the shared routes (GET /metrics, GET /healthz,
// pprof; see http.go), plus the /track routes of an attached TrackService. Every /detect response carries an
// X-Skynet-Generation header naming the generation that produced it, which
// is how the swap tests observe the cutover. A saturated pool sheds before
// the request body is read, so the 429 path costs a queue-length check, not
// a multi-megabyte read and parse.

import (
	"context"
	"errors"
	"net/http"
	"strconv"
	"time"

	"skynet/internal/detect"
	"skynet/internal/tensor"
)

// SwapRequest is the wire form of POST /admin/swap. The serve package does
// not know how to load weights; PoolConfig.SwapLoader interprets the
// request (a checkpoint path, a quantize directive — whatever the deployment
// supports) and returns the factory for the next generation.
type SwapRequest struct {
	// Ckpt names a checkpoint file to load the next generation from.
	Ckpt string `json:"ckpt,omitempty"`
	// Quantize requests an int8 lowering of the loaded model.
	Quantize bool `json:"quantize,omitempty"`
	// Calib is the calibration scene count for Quantize; 0 selects the
	// loader's default.
	Calib int `json:"calib,omitempty"`
}

// SwapResponse reports a completed swap.
type SwapResponse struct {
	// Generation is the generation now serving.
	Generation int64 `json:"generation"`
	// Replicas is its inference worker count.
	Replicas int    `json:"replicas"`
	Error    string `json:"error,omitempty"`
}

// Handler returns the pool's HTTP interface.
func (p *Pool) Handler() http.Handler {
	mux := newMux(func() any { return p.Metrics() }, p.Draining)
	mux.HandleFunc("POST /detect", p.handleDetect)
	mux.HandleFunc("POST /admin/swap", p.handleSwap)
	if p.track != nil {
		p.track.register(mux)
	}
	return mux
}

func (p *Pool) handleDetect(w http.ResponseWriter, r *http.Request) {
	// Two-layer shed, both before the body is read: the inflight semaphore
	// bounds total admitted HTTP work (saturation otherwise queues in read
	// and parse, invisible to the queue's bound), and a full queue right now
	// is the cheaper case — racy by design: the authoritative admission
	// decision is still the queue's own, in submit.
	if !p.acquire() {
		p.rejected.Add(1)
		writeError(w, http.StatusTooManyRequests, ErrOverloaded)
		return
	}
	defer p.release()
	if g := p.gen.Load(); len(g.in) == cap(g.in) {
		p.rejected.Add(1)
		writeError(w, http.StatusTooManyRequests, ErrOverloaded)
		return
	}
	// One pass over one buffer: read the body, hash its bytes, and only on a
	// cache miss parse them — into the frame a worker's batch is stacked
	// from.
	buf := getReqBuf()
	if err := buf.read(w, r); err != nil {
		putReqBuf(buf)
		writeError(w, bodyStatus(err), err)
		return
	}
	t0 := time.Now()
	key := hashBody(buf.body)
	box, conf, gen, ok := p.cached(key, t0)
	var err error
	if !ok {
		var img *tensor.Tensor
		if img, err = buf.parse(nil); err != nil {
			putReqBuf(buf)
			writeError(w, http.StatusBadRequest, err)
			return
		}
		box, conf, gen, err = p.submit(r.Context(), key, img, true, t0)
	}
	if reusable(err) {
		putReqBuf(buf)
	}
	w.Header().Set("X-Skynet-Generation", strconv.FormatInt(gen, 10))
	if err != nil {
		writeError(w, detectStatus(err), err)
		return
	}
	writeJSON(w, http.StatusOK, detect.Response{Box: box, Conf: conf})
}

func (p *Pool) handleSwap(w http.ResponseWriter, r *http.Request) {
	if p.cfg.SwapLoader == nil {
		writeSwapError(w, http.StatusNotImplemented, errors.New("serve: no swap loader configured"))
		return
	}
	var req SwapRequest
	if err := decodeBody(w, r, &req); err != nil {
		writeSwapError(w, bodyStatus(err), err)
		return
	}
	factory, err := p.cfg.SwapLoader(req)
	if err != nil {
		writeSwapError(w, http.StatusBadRequest, err)
		return
	}
	// The drain of the old generation is bounded by swapDrainTimeout, not by the
	// admin request's context: an impatient admin client must not abandon a
	// half-drained generation.
	//skynet:nolint ctxflow -- deliberate detach (see above): the swap drain must survive an admin client disconnect
	if err := p.Swap(context.Background(), factory); err != nil {
		status := http.StatusInternalServerError
		if errors.Is(err, ErrDraining) {
			status = http.StatusServiceUnavailable
		}
		writeSwapError(w, status, err)
		return
	}
	writeJSON(w, http.StatusOK, SwapResponse{Generation: p.Generation(), Replicas: p.Replicas()})
}

func writeSwapError(w http.ResponseWriter, status int, err error) {
	writeJSON(w, status, SwapResponse{Error: err.Error()})
}

// ListenAndServe runs the pool's front end on addr until ctx is cancelled,
// then drains gracefully with drainTimeout.
func (p *Pool) ListenAndServe(ctx context.Context, addr string, drainTimeout time.Duration) error {
	return serveUntil(ctx, addr, p.Handler(), drainTimeout, p.Drain)
}
