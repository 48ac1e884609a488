package serve

// Front-door plumbing shared by every HTTP surface in the package
// (Pool.Handler, TrackService.Handler): the bounded body readers — reqBuf for
// the routes that carry a tensor, decodeBody for the small ones — the JSON
// reply writer, the mux with the routes every service exposes (GET /metrics,
// GET /healthz — 503 while draining — and /debug/pprof/*), and the
// listen-until-cancelled-then-drain loop. Admission failures map to the
// conventional statuses: 429 + Retry-After on overflow, 503 on drain, 504 on
// a request deadline, 500 on an inference failure, 413 on an oversized body.

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/pprof"
	"sync"
	"time"

	"skynet/internal/detect"
	"skynet/internal/tensor"
)

// maxBodyBytes caps a request body before anything is read of it: the
// largest tensor a request may carry, at the longest float32 literal plus
// its separator (16 bytes), and 4 KiB for the shape, box and session fields
// around it.
const maxBodyBytes = detect.MaxRequestElements*16 + 4<<10

// decodeBody decodes one small JSON request body (an admin or session
// command, no tensor) into v, reading at most maxBodyBytes of it — and
// nothing at all of a body that declares itself larger; bodyStatus maps the
// error onto a status.
func decodeBody(w http.ResponseWriter, r *http.Request, v any) error {
	if r.ContentLength > maxBodyBytes {
		return &http.MaxBytesError{Limit: maxBodyBytes}
	}
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes)).Decode(v); err != nil {
		return fmt.Errorf("serve: decoding request body: %w", err)
	}
	return nil
}

// reqBuf is the memory one tensor request (POST /detect, /track/start,
// /track/step) holds between the socket and its answer: the raw body, read
// once, and the frame parsed out of it, which is the tensor the model's
// batch is stacked from — no copy in between. Buffers are recycled through a
// free list so a warm request allocates neither; both grow to the requests
// they have served (a body by its Content-Length, never to maxBodyBytes).
//
// Ownership: the handler that took the buffer is its only writer. Once the
// frame is submitted, the lane's worker reads it until the request's ticket
// is done, so the handler may put the buffer back only when it knows that
// has happened — or that the request was never admitted. Every outcome says
// so except a context error: a request that hits its deadline (or whose
// client went away) is handed back while it may still be in the lane,
// and its buffer is left to the garbage collector (see reusable).
type reqBuf struct {
	body  []byte
	frame *tensor.Tensor
}

// The free list keeps at most maxPooledBufs buffers, none with a body past
// maxPooledBody: a burst of connections or one huge frame is memory the
// collector gets back, not a new steady state.
const (
	maxPooledBufs = 64
	maxPooledBody = 4 << 20
)

var reqBufs struct {
	mu   sync.Mutex
	free []*reqBuf
}

func getReqBuf() *reqBuf {
	reqBufs.mu.Lock()
	defer reqBufs.mu.Unlock()
	if n := len(reqBufs.free); n > 0 {
		b := reqBufs.free[n-1]
		reqBufs.free = reqBufs.free[:n-1]
		return b
	}
	return &reqBuf{}
}

func putReqBuf(b *reqBuf) {
	if cap(b.body) > maxPooledBody {
		return
	}
	reqBufs.mu.Lock()
	if len(reqBufs.free) < maxPooledBufs {
		reqBufs.free = append(reqBufs.free, b)
	}
	reqBufs.mu.Unlock()
}

// reusable reports whether a request that ended with err has left the
// lane for certain, so that its buffer may serve another: true for
// every outcome but a context error (the lane returns those while the
// request may still be queued or in a forward).
func reusable(err error) bool {
	return !errors.Is(err, context.DeadlineExceeded) && !errors.Is(err, context.Canceled)
}

// read fills b.body with the whole request body, at most maxBodyBytes of
// it — and nothing at all of a body that declares itself larger; bodyStatus
// maps the error onto a status.
func (b *reqBuf) read(w http.ResponseWriter, r *http.Request) error {
	if r.ContentLength > maxBodyBytes {
		return &http.MaxBytesError{Limit: maxBodyBytes}
	}
	// One spare byte lets the read that finds the end of a body of the
	// declared length do so without growing the buffer.
	if need := int(r.ContentLength) + 1; cap(b.body) < need {
		b.body = make([]byte, 0, need)
	}
	b.body = b.body[:0]
	// net/http already ends a body at its declared length; only one of
	// unknown length needs the cap enforced while it is read.
	src := r.Body
	if r.ContentLength < 0 {
		src = http.MaxBytesReader(w, r.Body, maxBodyBytes)
	}
	for {
		if len(b.body) == cap(b.body) {
			b.body = append(b.body, 0)[:len(b.body)]
		}
		n, err := src.Read(b.body[len(b.body):cap(b.body)])
		b.body = b.body[:len(b.body)+n]
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return fmt.Errorf("serve: reading request body: %w", err)
		}
	}
}

// parse scans the body that read stored into a validated [C,H,W] frame —
// b.frame itself when the request has the shape of the last one this buffer
// served — and hands every other member of the request object to rest (see
// detect.ParseRequest).
func (b *reqBuf) parse(rest func(key, value []byte) error) (*tensor.Tensor, error) {
	img, err := detect.ParseRequest(b.body, b.frame, rest)
	if err != nil {
		return nil, err
	}
	b.frame = img
	return img, nil
}

// bodyStatus is 413 for a body over maxBodyBytes and 400 for any other
// decode failure.
func bodyStatus(err error) int {
	var tooBig *http.MaxBytesError
	if errors.As(err, &tooBig) {
		return http.StatusRequestEntityTooLarge
	}
	return http.StatusBadRequest
}

// writeJSON sends v as the JSON reply with the given status. Every 429
// carries the same constant Retry-After: the services shed at full queues,
// which clear on the order of a batch, so one second is always enough.
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	if status == http.StatusTooManyRequests {
		w.Header().Set("Retry-After", "1")
	}
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

// writeError answers a failed /detect in the detect.Response envelope.
func writeError(w http.ResponseWriter, status int, err error) {
	writeJSON(w, status, detect.Response{Error: err.Error()})
}

// detectStatus maps detection-path errors onto HTTP statuses.
func detectStatus(err error) int {
	switch {
	case errors.Is(err, ErrBadInput):
		return http.StatusBadRequest
	case errors.Is(err, ErrOverloaded):
		return http.StatusTooManyRequests
	case errors.Is(err, ErrDraining):
		return http.StatusServiceUnavailable
	case errors.Is(err, context.DeadlineExceeded), errors.Is(err, context.Canceled):
		return http.StatusGatewayTimeout
	}
	return http.StatusInternalServerError
}

// newMux returns a mux carrying the routes every front door shares; the
// caller adds its own on top.
func newMux(metrics func() any, draining func() bool) *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		_ = enc.Encode(metrics())
	})
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, _ *http.Request) {
		if draining() {
			http.Error(w, "draining", http.StatusServiceUnavailable)
			return
		}
		w.WriteHeader(http.StatusOK)
		_, _ = w.Write([]byte("ok\n"))
	})
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// serveUntil runs handler on addr until ctx is cancelled, then shuts down
// gracefully: drain refuses new work and lets in-flight requests finish,
// the listener stops taking connections, and both share drainTimeout. It
// returns the first serve or drain error.
func serveUntil(ctx context.Context, addr string, handler http.Handler, drainTimeout time.Duration, drain func(context.Context) error) error {
	hs := &http.Server{Addr: addr, Handler: handler}
	errc := make(chan error, 1)
	go func() {
		if err := hs.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
			errc <- err
		}
	}()
	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}
	//skynet:nolint ctxflow -- ctx is already cancelled at this point; the drain budget needs a fresh root or the graceful drain would be skipped entirely
	dctx, cancel := context.WithTimeout(context.Background(), drainTimeout)
	defer cancel()
	drainErr := drain(dctx)
	shutErr := hs.Shutdown(dctx)
	if drainErr != nil {
		return drainErr
	}
	return shutErr
}
