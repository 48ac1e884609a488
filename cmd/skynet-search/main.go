// Command skynet-search runs the paper's primary contribution end to end:
// the three-stage bottom-up hardware-efficient DNN design flow (Figure 3).
// Stage 1 enumerates and evaluates Bundles, Stage 2 searches architectures
// with the group-based PSO of Algorithm 1 under the Equation 1 fitness,
// and Stage 3 adds the bypass/reordering/ReLU6 features and trains the
// final network, reporting accuracy together with FPGA and GPU estimates.
// The flags set the flow's search spec (core.FlowConfig.Search, a
// pso.JobSpec), the same type the job API decodes.
//
// With -serve it instead hosts the measured-fitness search as a job API
// (internal/pso.Service): searches are submitted as JSON specs, evaluated
// through the real float32 and int8 engines, checkpointed every iteration
// into -dir, and resumed from there if the process is killed and the job
// resubmitted. SIGINT or SIGTERM stops it at the running job's next checkpoint.
//
// Usage:
//
//	skynet-search                  # quick one-shot flow
//	skynet-search -iters 6 -pergroup 5 -epochs 20   # a longer search
//	skynet-search -serve -addr :8089 -dir search-jobs
//
// Against a serving instance:
//
//	curl -X POST localhost:8089/search/jobs -d '{"iterations":4,"seed":1}'
//	curl localhost:8089/search/jobs/<id>          # status
//	curl localhost:8089/search/jobs/<id>/result   # finished best candidate
//	curl localhost:8089/metrics
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"skynet/internal/core"
	"skynet/internal/pso"
)

func main() {
	var (
		iters    = flag.Int("iters", 3, "PSO iterations (I in Algorithm 1)")
		perGroup = flag.Int("pergroup", 3, "networks per Bundle group (N)")
		groups   = flag.Int("groups", 3, "max Pareto Bundles carried into Stage 2 (M)")
		slots    = flag.Int("slots", 4, "Bundle replications per network")
		pools    = flag.Int("pools", 2, "pooling layers to place")
		trainN   = flag.Int("train", 48, "training set size")
		epochs   = flag.Int("epochs", 10, "final training epochs")
		fpgaMS   = flag.Float64("fpga-target", 40, "FPGA latency target Req_fpga (ms)")
		gpuMS    = flag.Float64("gpu-target", 15, "GPU latency target Req_gpu (ms)")
		seed     = flag.Int64("seed", 1, "random seed")

		serveMode = flag.Bool("serve", false, "host the measured-fitness search job API instead of the one-shot flow")
		addr      = flag.String("addr", ":8089", "listen address for -serve")
		dir       = flag.String("dir", "search-jobs", "checkpoint directory for -serve (jobs resume from here after a crash)")
	)
	flag.Parse()

	if *serveMode {
		if err := serveJobs(*addr, *dir); err != nil {
			fmt.Fprintf(os.Stderr, "skynet-search: %v\n", err)
			os.Exit(1)
		}
		return
	}

	cfg := core.DefaultFlowConfig()
	cfg.Search.Iterations = *iters
	cfg.Search.PerGroup = *perGroup
	cfg.MaxGroups = *groups
	cfg.Search.Slots = *slots
	cfg.Search.Pools = *pools
	cfg.Search.TrainN = *trainN
	cfg.Search.ValN = *trainN / 2
	cfg.FinalEpochs = *epochs
	cfg.Search.TargetMS["fpga"] = *fpgaMS
	cfg.Search.TargetMS["gpu"] = *gpuMS
	cfg.Search.Seed = *seed
	cfg.Log = func(format string, args ...any) {
		fmt.Fprintf(os.Stderr, "# "+format+"\n", args...)
	}

	res, err := core.Run(cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "skynet-search: %v\n", err)
		os.Exit(1)
	}

	fmt.Println("=== Stage 1: Bundle evaluation (Pareto frontier marked *) ===")
	onFrontier := map[int]bool{}
	for _, e := range res.Selected {
		onFrontier[e.Bundle.ID] = true
	}
	fmt.Printf("%-24s %8s %10s %10s %8s\n", "Bundle", "IoU", "FPGA ms", "GPU ms", "DSP")
	for _, e := range res.Candidates {
		mark := " "
		if onFrontier[e.Bundle.ID] {
			mark = "*"
		}
		fmt.Printf("%s %-22s %8.3f %10.2f %10.2f %8d\n",
			mark, e.Bundle.Name(), e.Acc, e.FPGALatMS, e.GPULatMS, e.DSP)
	}

	fmt.Println("\n=== Stage 2: group-based PSO ===")
	for i, f := range res.Search.History {
		fmt.Printf("iteration %d: best fitness %.4f\n", i, f)
	}
	fmt.Printf("best network: %s (accuracy %.3f)\n", res.Search.Best.Net, res.Search.Best.Acc)

	fmt.Println("\n=== Stage 3: feature addition + final training ===")
	fmt.Printf("final bundle:   %s\n", res.FinalBundle.Name())
	fmt.Printf("bypass applied: %v\n", res.BypassApplied)
	fmt.Printf("parameters:     %d\n", res.FinalNet.NumParams())
	fmt.Printf("final IoU:      %.4f\n", res.FinalIoU)
	fmt.Printf("FPGA estimate:  %s\n", res.FPGAReport)
	fmt.Printf("GPU latency:    %.2f ms\n", res.GPULatencyMS)
}

// serveJobs hosts the search-as-a-service job API on addr, checkpointing
// every job into dir, until SIGINT or SIGTERM closes the service.
func serveJobs(addr, dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("checkpoint directory: %w", err)
	}
	svc := pso.NewService(dir)
	fmt.Fprintf(os.Stderr, "# search job API on %s (checkpoints in %s)\n", addr, dir)
	fmt.Fprintf(os.Stderr, "#   POST /search/jobs, GET /search/jobs[/{id}[/result]], GET /metrics\n")
	hs := &http.Server{Addr: addr, Handler: svc.Handler(), ReadHeaderTimeout: 10 * time.Second}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	shut := make(chan error, 1)
	go func() {
		<-ctx.Done()
		svc.Close() // POST answers 503 until the running job has saved its next checkpoint
		shut <- hs.Shutdown(context.Background())
	}()
	if err := hs.ListenAndServe(); !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	return <-shut
}
