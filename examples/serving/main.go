// Serving: train a compact SkyNet detector for a few epochs, stand it up
// behind the detection front door (a one-worker serve.Pool), and hit it
// over HTTP with 16 concurrent net/http clients — demonstrating dynamic
// micro-batching (mean batch size > 1 under concurrency), the bounded
// admission queue, and the /metrics observability surface, all on one CPU.
package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"skynet/internal/backbone"
	"skynet/internal/dataset"
	"skynet/internal/detect"
	"skynet/internal/nn"
	"skynet/internal/serve"
)

func main() {
	// 1. A quickly trained model — serving quality tracks training budget,
	//    and the point here is the serving layer, not accuracy.
	gen := dataset.NewGenerator(dataset.DefaultConfig())
	train := gen.DetectionSet(64)
	rng := rand.New(rand.NewSource(1))
	model := backbone.SkyNetC(rng, backbone.Config{Width: 0.25, InC: 3, HeadChannels: 10, ReLU6: true})
	head := detect.NewHead(nil)
	fmt.Println("training a compact detector (8 epochs)...")
	detect.TrainDetector(model, head, train, detect.TrainConfig{
		Epochs:    8,
		BatchSize: 8,
		LR:        nn.LRSchedule{Start: 0.01, End: 0.002, Epochs: 8},
	})

	// 2. The serving pipeline: bounded admission, micro-batched inference.
	//    One worker around the one trained model; the response cache is
	//    off so every request below reaches the batcher.
	srv, err := serve.NewPool(func() (detect.Model, *detect.Head, error) {
		return model, head, nil
	}, serve.PoolConfig{
		Replicas:     1,
		CacheEntries: -1,
		Replica:      serve.Config{MaxBatch: 8},
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	hs := &http.Server{Handler: srv.Handler()}
	go func() { _ = hs.Serve(ln) }()
	url := "http://" + ln.Addr().String()
	fmt.Printf("serving on %s\n", url)

	// 3. Concurrent load: 16 clients × 4 requests over 8 distinct scenes,
	//    each scene's JSON body encoded once.
	bodies := make([][]byte, 8)
	for i := range bodies {
		var buf bytes.Buffer
		if err := detect.EncodeRequest(&buf, gen.Scene().Image); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		bodies[i] = buf.Bytes()
	}
	const clients, requests = 16, 4
	var ok, failed atomic.Int64
	var wg sync.WaitGroup
	t0 := time.Now()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for r := 0; r < requests; r++ {
				body := bodies[(c*requests+r)%len(bodies)]
				resp, err := http.Post(url+"/detect", "application/json", bytes.NewReader(body))
				if err != nil {
					failed.Add(1)
					continue
				}
				_, _ = io.Copy(io.Discard, resp.Body)
				_ = resp.Body.Close()
				if resp.StatusCode == http.StatusOK {
					ok.Add(1)
				} else {
					failed.Add(1)
				}
			}
		}(c)
	}
	wg.Wait()
	fmt.Printf("load: %d requests in %v — %d ok, %d errors\n",
		clients*requests, time.Since(t0).Round(time.Millisecond), ok.Load(), failed.Load())

	// 4. What the service observed.
	m := srv.Metrics()
	fmt.Printf("workers %d  served %d  failed %d  rejected %d\n", m.Replicas, m.Served, m.Failed, m.Rejected)
	fmt.Printf("latency: mean %.2fms  p50 %.2fms  p95 %.2fms  p99 %.2fms\n",
		m.Latency.MeanMS, m.Latency.P50MS, m.Latency.P95MS, m.Latency.P99MS)
	rm := m.ReplicaMetrics[0]
	fmt.Printf("mean inference batch: %.2f images/forward (batching leverage: "+
		"one weight load amortized over concurrent users)\n", rm.MeanBatchSize)
	for _, st := range rm.Stages {
		fmt.Printf("  stage %-7s workers %d  items %-4d occupancy %.2f\n",
			st.Name, st.Workers, st.Items, st.Occupancy)
	}

	// 5. Graceful drain.
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srv.Drain(ctx); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	_ = hs.Shutdown(ctx)
	fmt.Println("drained cleanly")
}
