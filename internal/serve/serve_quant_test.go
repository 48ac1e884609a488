package serve

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"sync"
	"sync/atomic"
	"testing"

	"skynet/internal/backbone"
	"skynet/internal/detect"
	"skynet/internal/quant"
	"skynet/internal/tensor"
)

// TestServeQuantizedModel runs the batching service on a real int8
// QuantizedModel — the deployment path behind `skynet-serve -quantize` —
// and checks that concurrent submissions produce the same detections the
// engine produces offline.
func TestServeQuantizedModel(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	g := backbone.SkyNetC(rng, backbone.Config{Width: 0.25, InC: 3, HeadChannels: 10, ReLU6: true})
	calib := tensor.New(2, 3, 16, 16)
	for i := range calib.Data {
		calib.Data[i] = rng.Float32()
	}
	qm, err := quant.Export(g, []*tensor.Tensor{calib}, quant.ExportConfig{})
	if err != nil {
		t.Fatal(err)
	}
	head := detect.NewHead(nil)
	s := newTestPool(t, func() (detect.Model, *detect.Head, error) { return qm, head, nil },
		PoolConfig{Replicas: 1, CacheEntries: -1, Replica: Config{MaxBatch: 4}})

	img := tensor.New(3, 16, 16)
	for i := range img.Data {
		img.Data[i] = rng.Float32()
	}
	// Offline reference through the same engine.
	x := tensor.New(1, 3, 16, 16)
	copy(x.Data, img.Data)
	wantBox, wantConf := head.Decode(qm.Forward(x, false))

	for i := 0; i < 8; i++ {
		box, conf, err := s.Submit(context.Background(), img)
		if err != nil {
			t.Fatal(err)
		}
		if box != wantBox[0] || conf != wantConf[0] {
			t.Fatalf("served detection %+v conf %v, offline engine %+v conf %v",
				box, conf, wantBox[0], wantConf[0])
		}
	}
	if m := s.Metrics(); m.Served != 8 || m.Failed != 0 {
		t.Fatalf("metrics %+v after 8 successes", m)
	}
}

// TestDetectNonFiniteFrameIs400: a frame whose finite pixels overflow the
// forward (3e38 everywhere) decodes to no finite box. /detect answers it 400
// — twice, since nothing is cached — and Submit returns ErrBadInput, where
// both used to answer an invented zero box at confidence 0, and the cache
// kept it; /track/step answers such a frame the same way.
func TestDetectNonFiniteFrameIs400(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	head := detect.NewHead(nil)
	g := backbone.SkyNetC(rng, backbone.Config{Width: 0.25, InC: 3, HeadChannels: head.Channels(), ReLU6: true})
	p := newTestPool(t, func() (detect.Model, *detect.Head, error) { return g, head, nil },
		PoolConfig{Replicas: 1, CacheEntries: 16, Replica: Config{Channels: 3}})
	huge := tensor.New(3, 48, 96)
	huge.Fill(3e38)
	body := detectBody(t, huge)
	for i := 0; i < 2; i++ {
		if rec := post(p.Handler(), "/detect", body); rec.Code != http.StatusBadRequest {
			t.Fatalf("POST %d of an overflowing frame: status %d %q, want 400", i, rec.Code, rec.Body)
		}
	}
	if _, _, err := p.Submit(context.Background(), huge); !errors.Is(err, ErrBadInput) {
		t.Fatalf("Submit of an overflowing frame: %v, want ErrBadInput", err)
	}
	if n := p.Metrics().Cache.Entries; n != 0 {
		t.Fatalf("the cache holds %d entries after three failed requests", n)
	}
}

// TestPoolBuildsOneModelPerGeneration: the workers of a generation share its
// one model, so NewPool and a Swap call the factory once each, at 1, 2 and 4
// workers alike; and on a real SkyNet C generation, float and int8, four
// workers answer a burst of concurrent requests bit for bit as one does.
func TestPoolBuildsOneModelPerGeneration(t *testing.T) {
	for _, replicas := range []int{1, 2, 4} {
		var calls atomic.Int64
		factory := func() (detect.Model, *detect.Head, error) {
			calls.Add(1)
			return &stubModel{}, detect.NewHead(nil), nil
		}
		p := newTestPool(t, factory, PoolConfig{Replicas: replicas, CacheEntries: -1})
		if n := calls.Load(); n != 1 {
			t.Fatalf("NewPool at %d workers called the factory %d times, want once", replicas, n)
		}
		if err := p.Swap(factory); err != nil {
			t.Fatal(err)
		}
		if n := calls.Load(); n != 2 {
			t.Fatalf("NewPool and a Swap at %d workers called the factory %d times, want twice", replicas, n)
		}
		if m := p.Metrics(); m.Replicas != replicas || p.Replicas() != replicas {
			t.Fatalf("a pool of %d workers reports %d (metrics) and %d", replicas, m.Replicas, p.Replicas())
		}
	}

	rng := rand.New(rand.NewSource(54))
	head := detect.NewHead(nil)
	g := backbone.SkyNetC(rng, backbone.Config{Width: 0.25, InC: 3, HeadChannels: head.Channels(), ReLU6: true})
	random := func(shape ...int) *tensor.Tensor {
		x := tensor.New(shape...)
		for i := range x.Data {
			x.Data[i] = rng.Float32()
		}
		return x
	}
	qm, err := quant.Export(g, []*tensor.Tensor{random(2, 3, 48, 96)}, quant.ExportConfig{})
	if err != nil {
		t.Fatal(err)
	}
	imgs := make([]*tensor.Tensor, 12)
	for i := range imgs {
		imgs[i] = random(3, 48, 96)
	}
	answers := func(m detect.Model, replicas int) []string {
		p := newTestPool(t, func() (detect.Model, *detect.Head, error) { return m, head, nil },
			PoolConfig{Replicas: replicas, CacheEntries: -1, Replica: Config{MaxBatch: 2}})
		out := make([]string, len(imgs))
		var wg sync.WaitGroup
		for i, img := range imgs {
			wg.Add(1)
			go func() {
				defer wg.Done()
				box, conf, err := p.Submit(context.Background(), img)
				out[i] = fmt.Sprint(err)
				for _, v := range []float64{box.CX, box.CY, box.W, box.H, conf} {
					out[i] += fmt.Sprintf(" %x", math.Float64bits(v))
				}
			}()
		}
		wg.Wait()
		return out
	}
	for name, m := range map[string]detect.Model{"float": g, "int8": qm} {
		one, four := answers(m, 1), answers(m, 4)
		for i := range one {
			if four[i] != one[i] {
				t.Fatalf("%s, request %d: 4 workers answered %s, one worker %s", name, i, four[i], one[i])
			}
		}
	}
}
