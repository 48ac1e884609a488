package serve

// Front-door tests: the two HTTP surfaces (Pool.Handler, with and without
// an attached TrackService, and TrackService.Handler) expose exactly their
// route sets over the shared plumbing, flip /healthz on drain, and bound
// request bodies before the JSON decoder materialises them.

import (
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"sort"
	"strings"
	"testing"
	"time"
)

var (
	sharedRoutes = []string{"GET /metrics", "GET /healthz", "/debug/pprof/", "/debug/pprof/cmdline",
		"/debug/pprof/profile", "/debug/pprof/symbol", "/debug/pprof/trace"}
	detectRoutes = []string{"POST /detect", "POST /admin/swap"}
	trackRoutes  = []string{"POST /track/start", "POST /track/step", "POST /track/stop"}
)

func routeSet(groups ...[]string) []string {
	var all []string
	for _, g := range groups {
		all = append(all, g...)
	}
	sort.Strings(all)
	return all
}

// matchedRoutes probes h with both methods on every path any front door
// knows (plus two nobody serves) and returns the mux patterns that matched.
func matchedRoutes(t *testing.T, h http.Handler) []string {
	t.Helper()
	mux, ok := h.(*http.ServeMux)
	if !ok {
		t.Fatalf("handler is a %T, want the shared *http.ServeMux", h)
	}
	seen := map[string]bool{}
	paths := []string{"/", "/detect/extra"}
	for _, pat := range routeSet(sharedRoutes, detectRoutes, trackRoutes) {
		paths = append(paths, pat[strings.Index(pat, "/"):])
	}
	for _, path := range paths {
		for _, method := range []string{http.MethodGet, http.MethodPost} {
			if _, pat := mux.Handler(httptest.NewRequest(method, path, nil)); pat != "" {
				seen[pat] = true
			}
		}
	}
	var got []string
	for pat := range seen {
		got = append(got, pat)
	}
	sort.Strings(got)
	return got
}

func healthz(h http.Handler) int {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/healthz", nil))
	return rec.Code
}

func TestFrontDoorRoutes(t *testing.T) {
	bare := newSinglePool(t, &stubModel{}, Config{})
	hosting := newSinglePool(t, &stubModel{}, Config{})
	hosting.Attach(newTestTrackService(t, testTracker(false), TrackConfig{}))
	standalone := newTestTrackService(t, testTracker(false), TrackConfig{})

	for _, tc := range []struct {
		name    string
		handler http.Handler
		drain   func(context.Context) error
		want    []string
	}{
		{"pool", bare.Handler(), bare.Drain, routeSet(sharedRoutes, detectRoutes)},
		{"pool+track", hosting.Handler(), hosting.Drain, routeSet(sharedRoutes, detectRoutes, trackRoutes)},
		{"track", standalone.Handler(), standalone.Drain, routeSet(sharedRoutes, trackRoutes)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			got := matchedRoutes(t, tc.handler)
			if strings.Join(got, "\n") != strings.Join(tc.want, "\n") {
				t.Fatalf("routes:\n%s\nwant:\n%s", strings.Join(got, "\n"), strings.Join(tc.want, "\n"))
			}
			if code := healthz(tc.handler); code != http.StatusOK {
				t.Fatalf("healthz before drain: %d, want 200", code)
			}
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			defer cancel()
			if err := tc.drain(ctx); err != nil {
				t.Fatalf("drain: %v", err)
			}
			if code := healthz(tc.handler); code != http.StatusServiceUnavailable {
				t.Fatalf("healthz after drain: %d, want 503", code)
			}
		})
	}
}

// repeatReader yields n bytes of the filler repeated end to end, so an
// over-limit body costs the test no memory of its own.
type repeatReader struct {
	filler string
	off, n int
}

func (r *repeatReader) Read(p []byte) (int, error) {
	if r.n <= 0 {
		return 0, io.EOF
	}
	if len(p) > r.n {
		p = p[:r.n]
	}
	n := copy(p, r.filler[r.off:])
	r.off = (r.off + n) % len(r.filler)
	r.n -= n
	return n, nil
}

// TestOversizedBodyIs413 posts a body past maxBodyBytes to every route that
// decodes a tensor — once declaring its length, which is refused unread, and
// once streamed with no length, which the byte cap must cut off: the answer
// is 413 (not an unbounded allocation, not a panic) and the service takes
// the next request.
func TestOversizedBodyIs413(t *testing.T) {
	p := newSinglePool(t, &stubModel{}, Config{})
	p.Attach(newTestTrackService(t, testTracker(false), TrackConfig{}))
	h := p.Handler()

	filler := strings.Repeat("0,", 32<<10)
	for _, tc := range []struct {
		route    string
		declared bool
	}{
		{"/detect", true},
		{"/track/start", true},
		{"/track/step", true},
		// One streamed body covers the cap for all three: they share
		// decodeBody, and scanning 64 MiB of JSON is slow under -race.
		{"/track/step", false},
	} {
		body := io.MultiReader(strings.NewReader(`{"shape":[3,1,1],"data":[`),
			&repeatReader{filler: filler, n: maxBodyBytes})
		req := httptest.NewRequest(http.MethodPost, tc.route, body)
		if tc.declared {
			req.ContentLength = maxBodyBytes + 25
		}
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		if rec.Code != http.StatusRequestEntityTooLarge {
			t.Fatalf("%s (declared=%v): over-limit body answered %d, want 413 (%s)",
				tc.route, tc.declared, rec.Code, rec.Body)
		}
	}
	if _, _, err := p.Submit(context.Background(), testImage(0.3)); err != nil {
		t.Fatalf("detection after oversized bodies: %v", err)
	}
	seq := testTrackSequences(1, 2)[0]
	if _, _, err := p.track.Start(context.Background(), seq.Frames[0], seq.Boxes[0]); err != nil {
		t.Fatalf("tracking after oversized bodies: %v", err)
	}
}
