// Serving: train a compact SkyNet detector for a few epochs, stand it up
// behind the detection front door (a one-worker serve.Pool), and hit it
// over HTTP with concurrent
// clients through the load generator — demonstrating dynamic micro-batching
// (mean batch size > 1 under concurrency), the bounded admission queue,
// and the /metrics observability surface, all on one CPU.
package main

import (
	"context"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"os"
	"time"

	"skynet/internal/backbone"
	"skynet/internal/dataset"
	"skynet/internal/detect"
	"skynet/internal/nn"
	"skynet/internal/serve"
	"skynet/internal/tensor"
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

	// 3. Concurrent load: 16 clients × 4 requests over 8 distinct scenes.
	images := make([]*tensor.Tensor, 8)
	for i := range images {
		images[i] = gen.Scene().Image
	}
	lg := &serve.LoadGen{URL: url, Clients: 16, Requests: 4, Images: images}
	report, err := lg.Run(context.Background())
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	fmt.Printf("load: %d requests in %v — %d ok, %d errors\n",
		len(report.Results), report.Elapsed.Round(time.Millisecond),
		report.Count(http.StatusOK), len(report.Errors()))

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
