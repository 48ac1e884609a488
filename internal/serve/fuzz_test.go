package serve

// Fuzz targets for the HTTP decoders: whatever bytes arrive on /detect,
// /track/start, or /track/step, the service must answer with a sane client
// or capacity status — malformed JSON and malformed shapes map to 400 (404
// for an unknown session, 413 for a body past the byte cap, 429/503/504
// under pressure), never to a panic and never to a 500. A body big enough
// for 413 is no seed anyone would commit (TestOversizedBodyIs413 generates
// one); the over-element-limit seeds pin the neighbouring check, a small
// body whose shape claims more than detect.MaxRequestElements. Seed corpora live in testdata/fuzz/<Target>/ and run as
// plain subtests under `go test`; `go test -fuzz=FuzzDetectHTTP` (etc.)
// explores from there.

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"

	"skynet/internal/detect"
)

// allowedClientStatus is the contract every fuzzed decoder shares: client
// errors and capacity pushback are fine, server faults are findings.
func allowedClientStatus(code int) bool {
	switch code {
	case http.StatusOK, http.StatusBadRequest, http.StatusNotFound,
		http.StatusRequestEntityTooLarge, http.StatusTooManyRequests, http.StatusServiceUnavailable,
		http.StatusGatewayTimeout:
		return true
	}
	return false
}

func fuzzPost(t *testing.T, h http.Handler, path string, body []byte) int {
	t.Helper()
	req := httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body))
	req.Header.Set("Content-Type", "application/json")
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec.Code
}

func FuzzDetectHTTP(f *testing.F) {
	// A valid request, then progressively broken ones: truncated JSON, shape
	// lies (count mismatch, wrong rank, wrong channels, negative and
	// overflowing dims), type confusion, and junk.
	var ok bytes.Buffer
	if err := detect.EncodeRequest(&ok, testImage(0.3)); err != nil {
		f.Fatal(err)
	}
	f.Add(ok.Bytes())
	f.Add([]byte(``))
	f.Add([]byte(`{`))
	f.Add([]byte(`not json at all`))
	f.Add([]byte(`{"shape":[3,2,2],"data":[1,2,3]}`))                        // count mismatch
	f.Add([]byte(`{"shape":[4],"data":[1,2,3,4]}`))                          // rank 1
	f.Add([]byte(`{"shape":[5,2,2],"data":[` + zeros(20) + `]}`))            // 5 channels
	f.Add([]byte(`{"shape":[-3,2,2],"data":[]}`))                            // negative dim
	f.Add([]byte(`{"shape":[1073741824,1073741824,4],"data":[]}`))           // element overflow
	f.Add([]byte(`{"shape":[0,0,0],"data":[]}`))                             // zero dims
	f.Add([]byte(`{"shape":"wide","data":{}}`))                              // type confusion
	f.Add([]byte(`{"shape":[3,1,1],"data":[1e38,-1e38,0],"extra":"field"}`)) // unknown field
	f.Add([]byte(`{"shape":[3,4294967296,4294967296],"data":[]}`))           // element product wraps to 0
	f.Add([]byte(`{"shape":[3,2,2],"data":[` + zeros(12) + `]} trailing garbage`))

	// The wrong-channel seeds only map to 400 because Config.Channels gates
	// them at pre-process; without it they would reach the model as a
	// 500-class inference failure.
	p, err := NewPool(verFactory(1, nil, nil), PoolConfig{Replicas: 1,
		Replica: Config{QueueDepth: 64, MaxBatch: 4, Channels: 3}})
	if err != nil {
		f.Fatal(err)
	}
	defer p.Close()
	h := p.Handler()

	f.Fuzz(func(t *testing.T, body []byte) {
		code := fuzzPost(t, h, "/detect", body)
		if !allowedClientStatus(code) {
			t.Fatalf("/detect answered %d for %q — decoder let a client error become a server fault", code, body)
		}
	})
}

func FuzzTrackStartHTTP(f *testing.F) {
	seq := testTrackSequences(1, 2)[0]
	okStart, err := encodeJSON(TrackStartRequest{
		Shape: seq.Frames[0].Shape(), Data: seq.Frames[0].Data, Box: seq.Boxes[0]})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(okStart)
	f.Add([]byte(``))
	f.Add([]byte(`{`))
	f.Add([]byte(`{"shape":[3,2,2],"data":[1],"box":{}}`))                                              // count mismatch
	f.Add([]byte(`{"shape":[1,4,4],"data":[` + zeros(16) + `],"box":{}}`))                              // 1 channel
	f.Add([]byte(`{"shape":[3,4,4],"data":[` + zeros(48) + `],"box":{"x":-1e9,"y":1e9,"w":0,"h":-5}}`)) // degenerate box
	f.Add([]byte(`{"shape":[3,0,0],"data":[],"box":null}`))
	f.Add([]byte(`{"box":"not a box"}`))
	f.Add([]byte(`{"shape":[3,4294967296,4294967296],"data":[],"box":{"cx":0.5,"cy":0.5,"w":0.2,"h":0.2}}`)) // element product wraps to 0
	f.Add(append(append([]byte(nil), okStart...), " trailing garbage"...))

	ts := newFuzzTrackService(f)
	mux := http.NewServeMux()
	ts.register(mux)

	f.Fuzz(func(t *testing.T, body []byte) {
		code := fuzzPost(t, mux, "/track/start", body)
		if !allowedClientStatus(code) {
			t.Fatalf("/track/start answered %d for %q", code, body)
		}
	})
}

func FuzzTrackStepHTTP(f *testing.F) {
	seq := testTrackSequences(1, 2)[0]
	ts := newFuzzTrackService(f)
	mux := http.NewServeMux()
	ts.register(mux)
	// One live session so the fuzzer can reach the post-lookup decode path.
	id, _, err := ts.Start(context.Background(), seq.Frames[0], seq.Boxes[0])
	if err != nil {
		f.Fatal(err)
	}
	okStep, err := encodeJSON(TrackStepRequest{
		Session: id, Shape: seq.Frames[1].Shape(), Data: seq.Frames[1].Data})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(okStep)
	f.Add([]byte(``))
	f.Add([]byte(`{"session":"` + id + `"}`))                                          // no frame
	f.Add([]byte(`{"session":"t-999999","shape":[3,4,4],"data":[` + zeros(48) + `]}`)) // unknown session
	f.Add([]byte(`{"session":"` + id + `","shape":[3,2],"data":[1,2,3,4,5,6]}`))       // rank 2
	f.Add([]byte(`{"session":"` + id + `","shape":[3,1,1],"data":[1,2,3],"mask":true}`))
	f.Add([]byte(`{"session":42,"shape":[3,4,4]}`))                                       // type confusion
	f.Add([]byte(`{"session":"` + id + `","shape":[3,4294967296,4294967296],"data":[]}`)) // element product wraps to 0
	f.Add(append(append([]byte(nil), okStep...), " trailing garbage"...))

	f.Fuzz(func(t *testing.T, body []byte) {
		code := fuzzPost(t, mux, "/track/step", body)
		if !allowedClientStatus(code) {
			t.Fatalf("/track/step answered %d for %q", code, body)
		}
	})
}

func newFuzzTrackService(f *testing.F) *TrackService {
	f.Helper()
	ts, err := NewTrackService(testTracker(false), TrackConfig{QueueDepth: 64})
	if err != nil {
		f.Fatal(err)
	}
	f.Cleanup(ts.Close)
	return ts
}

// zeros renders n comma-separated zeros for JSON seed bodies.
func zeros(n int) string {
	var b bytes.Buffer
	for i := 0; i < n; i++ {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteByte('0')
	}
	return b.String()
}

func encodeJSON(v any) ([]byte, error) { return json.Marshal(v) }
