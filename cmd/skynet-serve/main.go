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
	"bufio"
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"syscall"
	"time"

	"skynet/internal/dataset"
	"skynet/internal/detect"
	"skynet/internal/modelspec"
	"skynet/internal/nn"
	"skynet/internal/quant"
	"skynet/internal/serve"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintf(os.Stderr, "skynet-serve: %v\n", err)
		if errors.As(err, new(usage)) {
			os.Exit(2)
		}
		os.Exit(1)
	}
}

// usage is a refusal of the command line: exit status 2, as for a bad flag.
type usage string

func (u usage) Error() string { return string(u) }

// run serves the checkpoint the flags name until SIGTERM, writing its report
// to stdout. A flag it cannot run is refused before anything is built.
func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("skynet-serve", flag.ExitOnError)
	var (
		ckpt = fs.String("ckpt", "", "self-describing checkpoint written by skynet-train -ckpt")

		addr     = fs.String("addr", ":8080", "HTTP listen address")
		batch    = fs.Int("batch", 8, "inference micro-batch cap")
		queue    = fs.Int("queue", 64, "admission queue depth per worker (overflow sheds with 429)")
		timeout  = fs.Duration("timeout", 5*time.Second, "per-request deadline when the client sets none")
		drain    = fs.Duration("drain", 10*time.Second, "graceful drain budget on SIGTERM")
		replicas = fs.Int("replicas", 0, "inference workers, all sharing the one loaded model, on one admission queue (0 = GOMAXPROCS capped at 8)")
		cacheN   = fs.Int("cache", 4096, "response cache entries keyed on frame hash (negative disables)")

		quantize = fs.Bool("quantize", false, "serve the int8 lowering of the model (post-training quantization)")
		calibN   = fs.Int("calib", 32, "calibration scenes drawn for -quantize")
		imgW     = fs.Int("imgw", 96, "calibration scene width for -quantize")
		imgH     = fs.Int("imgh", 48, "calibration scene height for -quantize")
	)
	_ = fs.Parse(args) // ExitOnError: a flag it cannot parse exits 2, -h 0
	switch {
	case *ckpt == "":
		return usage("-ckpt is required")
	case *imgW < 1:
		return usage(fmt.Sprintf("-imgw %d: the calibration scenes need a positive width", *imgW))
	case *imgH < 1:
		return usage(fmt.Sprintf("-imgh %d: the calibration scenes need a positive height", *imgH))
	case *calibN < 1: // also the default of a swap that asks to quantize
		return usage(fmt.Sprintf("-calib %d: quantizing needs at least one calibration scene", *calibN))
	}
	// factoryFor builds a generation's one model, which its workers share:
	// NewPool (reporting a bad checkpoint) and each hot-swap load it once.
	factoryFor := func(ckptPath string, doQuant bool, calib int) serve.ModelFactory {
		return func() (detect.Model, *detect.Head, error) {
			spec, g, head, err := modelspec.LoadCheckpoint(ckptPath)
			if err != nil {
				return nil, nil, err
			}
			if !doQuant {
				return g, head, nil
			}
			if _, err := nn.CostsOf(g, []int{1, spec.InC, *imgH, *imgW}); err != nil {
				return nil, nil, fmt.Errorf("-imgw %d -imgh %d: %w", *imgW, *imgH, err)
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
		return err
	}
	w := bufio.NewWriter(stdout)
	if *quantize {
		fmt.Fprintf(w, "skynet-serve: serving the int8 lowering (calib %d scenes)\n", *calibN)
	}
	fmt.Fprintf(w, "skynet-serve: listening on %s (%d workers, batch<=%d, queue %d each, cache %d)\n",
		*addr, srv.Replicas(), *batch, *queue, *cacheN)
	if err := w.Flush(); err != nil {
		return err
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := srv.ListenAndServe(ctx, *addr, *drain); err != nil {
		return err
	}
	m := srv.Metrics()
	fmt.Fprintf(w, "skynet-serve: drained cleanly — served %d (+%d cached), failed %d, rejected %d, swaps %d\n",
		m.Served, m.CacheServed, m.Failed, m.Rejected, m.Swaps)
	return w.Flush()
}
