// Command skynet-serve exposes a trained SkyNet detector as an HTTP
// service: POST /detect takes a JSON image tensor and answers with the
// decoded bounding box, /metrics exports the serving counters (queue
// depth, latency quantiles, per-stage occupancy, mean batch size),
// /healthz is the load-balancer probe, and /debug/pprof/* the standard
// profiles. Requests from concurrent clients queue on one admission queue
// and are dynamically micro-batched by whichever inference worker is idle,
// so one weight load serves many users. Tracking has a service of its own,
// skynet-track -serve.
// SIGTERM or Ctrl-C drains gracefully: in-flight requests finish, new ones
// are refused with 503.
//
// With -quantize the loaded model is lowered to the real int8 engine
// (per-channel weights, per-tensor activations calibrated on -calib freshly
// generated scenes) before serving, cutting activation traffic 4x per request.
//
// Usage:
//
//	skynet-train -variant C -width 0.25 -ckpt skynet.ckpt
//	skynet-serve -ckpt skynet.ckpt -addr :8080
//	skynet-serve -ckpt skynet.ckpt -addr :8080 -quantize -calib 64
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"
	"time"

	"skynet/internal/dataset"
	"skynet/internal/detect"
	"skynet/internal/modelspec"
	"skynet/internal/quant"
	"skynet/internal/serve"
)

func main() {
	var (
		ckpt = flag.String("ckpt", "", "self-describing checkpoint written by skynet-train -ckpt")

		addr     = flag.String("addr", ":8080", "HTTP listen address")
		batch    = flag.Int("batch", 8, "inference micro-batch cap")
		queue    = flag.Int("queue", 64, "admission queue depth per worker (overflow sheds with 429)")
		timeout  = flag.Duration("timeout", 5*time.Second, "per-request deadline when the client sets none")
		drain    = flag.Duration("drain", 10*time.Second, "graceful drain budget on SIGTERM")
		replicas = flag.Int("replicas", 0, "inference workers, each with a private model, on one admission queue (0 = GOMAXPROCS capped at 8)")
		cacheN   = flag.Int("cache", 4096, "response cache entries keyed on frame hash (negative disables)")

		quantize = flag.Bool("quantize", false, "serve the int8 lowering of the model (post-training quantization)")
		calibN   = flag.Int("calib", 32, "calibration scenes drawn for -quantize")
		imgW     = flag.Int("imgw", 96, "calibration scene width for -quantize")
		imgH     = flag.Int("imgh", 48, "calibration scene height for -quantize")
	)
	flag.Parse()

	if *ckpt == "" {
		fmt.Fprintln(os.Stderr, "skynet-serve: -ckpt is required")
		os.Exit(2)
	}
	// factoryFor builds one private model per call: each worker owns its
	// model instance and reuse buffers, which is what lets N inference
	// workers run concurrently, and what a hot-swap rebuilds per generation.
	// NewPool's first build reports a bad checkpoint.
	factoryFor := func(ckptPath string, doQuant bool, calib int) serve.ModelFactory {
		return func() (detect.Model, *detect.Head, error) {
			_, g, head, err := modelspec.LoadCheckpoint(ckptPath)
			if err != nil {
				return nil, nil, err
			}
			if !doQuant {
				return g, head, nil
			}
			// Calibrate on freshly generated scenes at the expected request
			// resolution.
			dcfg := dataset.DefaultConfig()
			dcfg.W, dcfg.H = *imgW, *imgH
			scenes := dataset.NewGenerator(dcfg).DetectionSet(calib)
			qm, err := quant.Export(g, detect.Batches(scenes, 8), quant.ExportConfig{})
			if err != nil {
				return nil, nil, err
			}
			return qm, head, nil
		}
	}
	if *quantize {
		fmt.Printf("skynet-serve: serving the int8 lowering (calib %d scenes)\n", *calibN)
	}

	srv, err := serve.NewPool(factoryFor(*ckpt, *quantize, *calibN), serve.PoolConfig{
		Replicas:     *replicas,
		CacheEntries: *cacheN,
		Replica: serve.Config{
			MaxBatch:       *batch,
			QueueDepth:     *queue,
			RequestTimeout: *timeout,
			Channels:       3,
		},
		// POST /admin/swap: load the named checkpoint (optionally lowered
		// to int8) as the next generation and cut over under load.
		SwapLoader: func(req serve.SwapRequest) (serve.ModelFactory, error) {
			if req.Ckpt == "" {
				return nil, errors.New("swap request needs a ckpt")
			}
			calib := req.Calib
			if calib <= 0 {
				calib = *calibN
			}
			return factoryFor(req.Ckpt, req.Quantize, calib), nil
		},
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "skynet-serve: %v\n", err)
		os.Exit(1)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	fmt.Printf("skynet-serve: listening on %s (%d workers, batch<=%d, queue %d each, cache %d)\n",
		*addr, srv.Replicas(), *batch, *queue, *cacheN)
	if err := srv.ListenAndServe(ctx, *addr, *drain); err != nil {
		fmt.Fprintf(os.Stderr, "skynet-serve: %v\n", err)
		os.Exit(1)
	}
	m := srv.Metrics()
	fmt.Printf("skynet-serve: drained cleanly — served %d (+%d cached), failed %d, rejected %d, swaps %d\n",
		m.Served, m.CacheServed, m.Failed, m.Rejected, m.Swaps)
}
