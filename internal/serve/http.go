package serve

// Front-door plumbing shared by every HTTP surface in the package
// (Pool.Handler, TrackService.Handler): the bounded JSON body decoder, the
// JSON reply writer, the mux with the routes every service exposes (GET
// /metrics, GET /healthz — 503 while draining — and /debug/pprof/*), and the
// listen-until-cancelled-then-drain loop. Admission failures map to the
// conventional statuses: 429 + Retry-After on overflow, 503 on drain, 504 on
// a request deadline, 500 on an inference failure, 413 on an oversized body.

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/pprof"
	"time"

	"skynet/internal/detect"
)

// maxBodyBytes caps a request body before the JSON decoder materialises it:
// the largest tensor a request may carry, at the longest float32 literal
// plus its separator (16 bytes), and 4 KiB for the shape, box and session
// fields around it.
const maxBodyBytes = detect.MaxRequestElements*16 + 4<<10

// decodeBody decodes one JSON request body into v, reading at most
// maxBodyBytes of it — and nothing at all of a body that declares itself
// larger; bodyStatus maps the error onto a status.
func decodeBody(w http.ResponseWriter, r *http.Request, v any) error {
	if r.ContentLength > maxBodyBytes {
		return &http.MaxBytesError{Limit: maxBodyBytes}
	}
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes)).Decode(v); err != nil {
		return fmt.Errorf("serve: decoding request body: %w", err)
	}
	return nil
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
