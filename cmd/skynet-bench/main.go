// Command skynet-bench records the GEMM performance trajectory as JSON.
//
// It runs the float32 and int8 blocked GEMMs (and a representative conv
// forward) at SkyNet layer shapes under each requested micro-kernel and
// writes one machine-readable record per (bench, shape, kernel), so PRs
// that touch the kernels can diff GFLOPS against the committed baseline
// in BENCH_gemm.json.
//
// Usage:
//
//	skynet-bench                       # all available kernels, print JSON
//	skynet-bench -out BENCH_gemm.json  # write the committed baseline
//	skynet-bench -kernels purego       # restrict kernel set
//	skynet-bench -which                # print dispatched kernels and exit
//	skynet-bench -track-out BENCH_track.json  # tracking baseline instead
//	skynet-bench -search-out BENCH_search.json  # codesign-search baseline
//
// With -track-out the command records the tracking trajectory instead: a
// seeded SkyNet tracker is trained once, then evaluated per
// cross-correlation backend (gemm, naive, int8), recording frames/sec and
// the GOT-10k metrics so the int8 path's AO parity is pinned in-repo.
//
// With -search-out it records the codesign-search baseline: a fixed-seed
// measured-fitness PSO job run through the search service, plus executed
// proofs that the trajectory is bitwise identical across worker counts and
// across kill+resume, and an analytic-vs-measured latency comparison
// (-search-short shrinks the trajectory for CI).
//
// Runs are serial (MaxParallelism=1): the trajectory tracks kernel
// throughput, not worker-pool scaling.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"strings"
	"testing"

	"skynet/internal/backbone"
	"skynet/internal/cpufeat"
	"skynet/internal/dataset"
	"skynet/internal/nn"
	"skynet/internal/tensor"
	"skynet/internal/track"
)

// gemmShapes are the SkyNet layer shapes used by `make bench` and
// `make bench-quant`: m = output channels, k = InC·kh·kw, n = outH·outW,
// plus one square control.
var gemmShapes = []struct{ m, k, n int }{
	{96, 432, 512},
	{48, 27, 2560},
	{96, 48, 1280},
	{256, 256, 256},
}

// Record is one benchmark measurement. GFLOPS counts 2·m·k·n per GEMM
// call (MACs on the int8 path, where it is conventionally GOPS).
type Record struct {
	Bench  string  `json:"bench"`  // float32gemm | int8gemm | conv3x3
	Shape  string  `json:"shape"`  // m x k x n (conv: inC->outC @HxW)
	Kernel string  `json:"kernel"` // purego | avx2
	NsOp   int64   `json:"ns_op"`
	GFLOPS float64 `json:"gflops"`
	Allocs int64   `json:"allocs_op"`
}

// Baseline is the file format of BENCH_gemm.json.
type Baseline struct {
	GOOS        string   `json:"goos"`
	GOARCH      string   `json:"goarch"`
	AVX2        bool     `json:"cpu_avx2"`
	FMA         bool     `json:"cpu_fma"`
	Parallelism int      `json:"max_parallelism"`
	Records     []Record `json:"records"`
}

func gflops(m, k, n int, r testing.BenchmarkResult) float64 {
	per := 2 * float64(m) * float64(k) * float64(n)
	return per * float64(r.N) / r.T.Seconds() / 1e9
}

func benchFloat(m, k, n int) Record {
	rng := rand.New(rand.NewSource(1))
	a := tensor.New(m, k)
	a.RandNormal(rng, 0, 1)
	b := tensor.New(k, n)
	b.RandNormal(rng, 0, 1)
	c := tensor.New(m, n)
	r := testing.Benchmark(func(b2 *testing.B) {
		b2.ReportAllocs()
		for i := 0; i < b2.N; i++ {
			tensor.MatMulInto(c, a, b)
		}
	})
	return Record{Bench: "float32gemm", Shape: fmt.Sprintf("%dx%dx%d", m, k, n),
		Kernel: tensor.KernelName(), NsOp: r.NsPerOp(), GFLOPS: gflops(m, k, n, r), Allocs: r.AllocsPerOp()}
}

func benchInt8(m, k, n int) Record {
	rng := rand.New(rand.NewSource(1))
	a := randI8(rng, m*k)
	b := randI8(rng, k*n)
	dst := make([]int8, m*n)
	ep := tensor.Int8Epilogue{Bias: make([]int32, m), Mult: make([]float32, m), Lo: 0, Hi: 127}
	for i := range ep.Mult {
		ep.Mult[i] = 0.004
	}
	r := testing.Benchmark(func(b2 *testing.B) {
		b2.ReportAllocs()
		for i := 0; i < b2.N; i++ {
			tensor.Int8GEMMRequantInto(dst, a, b, m, n, k, ep)
		}
	})
	return Record{Bench: "int8gemm", Shape: fmt.Sprintf("%dx%dx%d", m, k, n),
		Kernel: tensor.Int8KernelName(), NsOp: r.NsPerOp(), GFLOPS: gflops(m, k, n, r), Allocs: r.AllocsPerOp()}
}

// benchConv measures a SkyNet-representative 3×3 conv forward (48→96
// channels on a 40×80 map), which lowers onto the float GEMM via im2col —
// the end-to-end view of the kernel swap.
func benchConv() Record {
	const inC, outC, kk, h, w = 48, 96, 3, 40, 80
	rng := rand.New(rand.NewSource(1))
	l := nn.NewConv2D(rng, inC, outC, kk, 1, 1, true)
	x := tensor.New(1, inC, h, w)
	x.RandNormal(rng, 0, 1)
	xs := []*tensor.Tensor{x}
	r := testing.Benchmark(func(b2 *testing.B) {
		b2.ReportAllocs()
		for i := 0; i < b2.N; i++ {
			l.Forward(xs, false)
		}
	})
	per := 2 * float64(outC) * float64(inC*kk*kk) * float64(h*w)
	return Record{Bench: "conv3x3", Shape: fmt.Sprintf("%d->%d@%dx%d", inC, outC, h, w),
		Kernel: tensor.KernelName(), NsOp: r.NsPerOp(),
		GFLOPS: per * float64(r.N) / r.T.Seconds() / 1e9, Allocs: r.AllocsPerOp()}
}

// TrackRecord is one tracking measurement: the GOT-10k metrics and the
// frame rate under one cross-correlation backend.
type TrackRecord struct {
	Backend string  `json:"backend"` // gemm | naive | int8
	Kernel  string  `json:"kernel"`
	AO      float64 `json:"ao"`
	SR50    float64 `json:"sr50"`
	SR75    float64 `json:"sr75"`
	FPS     float64 `json:"fps"`
	Frames  int     `json:"frames"`
}

// TrackBaseline is the file format of BENCH_track.json. AODeltaInt8 is
// |AO(int8) − AO(gemm)|, the quantized path's accuracy parity.
type TrackBaseline struct {
	GOOS        string        `json:"goos"`
	GOARCH      string        `json:"goarch"`
	AVX2        bool          `json:"cpu_avx2"`
	FMA         bool          `json:"cpu_fma"`
	Parallelism int           `json:"max_parallelism"`
	TrainSteps  int           `json:"train_steps"`
	Records     []TrackRecord `json:"records"`
	AODeltaInt8 float64       `json:"ao_delta_int8"`
}

// benchTrack trains one seeded tracker and evaluates it under every
// cross-correlation backend on the same sequences, so the records differ
// only in the lowering.
func benchTrack(steps int) TrackBaseline {
	cfg := dataset.DefaultConfig()
	cfg.W, cfg.H = 96, 96
	cfg.Seed = 1
	gen := dataset.NewGenerator(cfg)
	sc := dataset.DefaultSequenceConfig()
	sc.Length = 10
	trainSeqs := gen.Sequences(4, sc)
	evalSeqs := gen.Sequences(3, sc)

	bcfg := backbone.Config{Width: 0.125, InC: 3, HeadChannels: 0, MaxStride: 8, ReLU6: true}
	tcfg := track.DefaultConfig()
	rng := rand.New(rand.NewSource(1))
	tr := track.New(backbone.SkyNetA(rng, bcfg), bcfg.ScaledChannels(512), tcfg)
	fmt.Fprintf(os.Stderr, "# training tracker (%d steps)...\n", steps)
	tr.Train(trainSeqs, track.TrainConfig{Steps: steps, LR: 0.01, Seed: 1})

	base := TrackBaseline{GOOS: runtime.GOOS, GOARCH: runtime.GOARCH,
		AVX2: cpufeat.AVX2, FMA: cpufeat.FMA, Parallelism: 1, TrainSteps: steps}
	var aoGEMM, aoInt8 float64
	for _, b := range []track.XCorrBackend{track.XCorrGEMM, track.XCorrNaive, track.XCorrInt8} {
		tr.XCorr = b
		res := tr.Evaluate(evalSeqs)
		rec := TrackRecord{Backend: b.String(), Kernel: tensor.KernelName(),
			AO: res.AO, SR50: res.SR50, SR75: res.SR75, FPS: res.FPS, Frames: res.Frames}
		fmt.Fprintf(os.Stderr, "#   xcorr=%-6s AO %.3f  SR@0.50 %.3f  SR@0.75 %.3f  %.1f FPS\n",
			rec.Backend, rec.AO, rec.SR50, rec.SR75, rec.FPS)
		base.Records = append(base.Records, rec)
		switch b {
		case track.XCorrGEMM:
			aoGEMM = res.AO
		case track.XCorrInt8:
			aoInt8 = res.AO
		}
	}
	tr.XCorr = track.XCorrGEMM
	if d := aoInt8 - aoGEMM; d < 0 {
		base.AODeltaInt8 = -d
	} else {
		base.AODeltaInt8 = d
	}
	return base
}

func randI8(rng *rand.Rand, n int) []int8 {
	s := make([]int8, n)
	for i := range s {
		s[i] = int8(rng.Intn(255) - 127)
	}
	return s
}

func main() {
	var (
		out        = flag.String("out", "", "write JSON here instead of stdout")
		kernels    = flag.String("kernels", "", "comma-separated kernel names to run (default: purego plus every available asm kernel)")
		which      = flag.Bool("which", false, "print the dispatched kernel names and exit")
		trackOut   = flag.String("track-out", "", "record the tracking baseline (xcorr backends) to this file instead")
		trackSteps = flag.Int("track-steps", 240, "tracker training steps for -track-out")

		serveOut      = flag.String("serve-out", "", "record the fleet-serving baseline (scenario suite) to this file instead")
		serveClients  = flag.Int("serve-clients", 6400, "peak concurrent clients for -serve-out (100x the PR-3 integration scale)")
		serveReplicas = flag.Int("serve-replicas", 0, "replica count for -serve-out (0 = NumCPU, floored at 2, capped at 8)")
		serveSLO      = flag.Float64("serve-slo", 1000, "success-latency p99 budget in ms at peak for -serve-out")

		searchOut   = flag.String("search-out", "", "record the codesign-search baseline (measured-fitness PSO + determinism proofs) to this file instead")
		searchShort = flag.Bool("search-short", false, "shrink the -search-out trajectory for CI; the asserted properties are scale-independent")
	)
	flag.Parse()

	if *which {
		fmt.Printf("float32 kernel: %s\nint8 kernel:    %s\n", tensor.KernelName(), tensor.Int8KernelName())
		return
	}

	if *searchOut != "" {
		oldPar := tensor.MaxParallelism
		tensor.MaxParallelism = 1
		defer func() { tensor.MaxParallelism = oldPar }()
		base, err := benchSearch(*searchShort)
		if err != nil {
			fmt.Fprintf(os.Stderr, "skynet-bench: search: %v\n", err)
			os.Exit(1)
		}
		buf, err := json.MarshalIndent(base, "", "  ")
		if err != nil {
			fmt.Fprintf(os.Stderr, "skynet-bench: %v\n", err)
			os.Exit(1)
		}
		buf = append(buf, '\n')
		if err := os.WriteFile(*searchOut, buf, 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "skynet-bench: %v\n", err)
			os.Exit(1)
		}
		if !base.ParallelIdentical {
			fmt.Fprintf(os.Stderr, "skynet-bench: search: %d-worker trajectory differs from the serial service run\n", base.WideWorkers)
			os.Exit(1)
		}
		if !base.ResumeIdentical {
			fmt.Fprintf(os.Stderr, "skynet-bench: search: resumed trajectory differs from the uninterrupted run\n")
			os.Exit(1)
		}
		return
	}

	if *serveOut != "" {
		base, err := benchServe(*serveClients, *serveReplicas, *serveSLO)
		if err != nil {
			fmt.Fprintf(os.Stderr, "skynet-bench: serve: %v\n", err)
			os.Exit(1)
		}
		buf, err := json.MarshalIndent(base, "", "  ")
		if err != nil {
			fmt.Fprintf(os.Stderr, "skynet-bench: %v\n", err)
			os.Exit(1)
		}
		buf = append(buf, '\n')
		if err := os.WriteFile(*serveOut, buf, 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "skynet-bench: %v\n", err)
			os.Exit(1)
		}
		if !base.Identical {
			fmt.Fprintf(os.Stderr, "skynet-bench: serve: %d-replica responses differ from 1-replica\n", base.Replicas)
			os.Exit(1)
		}
		if !base.SLOMet {
			fmt.Fprintf(os.Stderr, "skynet-bench: serve: success p99 exceeded %.0fms at %d clients\n", *serveSLO, *serveClients)
			os.Exit(1)
		}
		return
	}

	if *trackOut != "" {
		oldPar := tensor.MaxParallelism
		tensor.MaxParallelism = 1
		defer func() { tensor.MaxParallelism = oldPar }()
		base := benchTrack(*trackSteps)
		buf, err := json.MarshalIndent(base, "", "  ")
		if err != nil {
			fmt.Fprintf(os.Stderr, "skynet-bench: %v\n", err)
			os.Exit(1)
		}
		buf = append(buf, '\n')
		if err := os.WriteFile(*trackOut, buf, 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "skynet-bench: %v\n", err)
			os.Exit(1)
		}
		return
	}

	var names []string
	if *kernels != "" {
		names = strings.Split(*kernels, ",")
	} else {
		names = []string{"purego"}
		if tensor.HasKernel("avx2") {
			names = append(names, "avx2")
		}
	}

	oldPar := tensor.MaxParallelism
	tensor.MaxParallelism = 1
	defer func() { tensor.MaxParallelism = oldPar }()

	base := Baseline{GOOS: runtime.GOOS, GOARCH: runtime.GOARCH,
		AVX2: cpufeat.AVX2, FMA: cpufeat.FMA, Parallelism: 1}
	for _, name := range names {
		if err := tensor.SetKernel(name); err != nil {
			fmt.Fprintf(os.Stderr, "skynet-bench: %v\n", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "# kernel=%s (float32=%s int8=%s)\n", name, tensor.KernelName(), tensor.Int8KernelName())
		for _, s := range gemmShapes {
			rec := benchFloat(s.m, s.k, s.n)
			fmt.Fprintf(os.Stderr, "#   %-12s %-12s %8.2f GFLOPS  %d allocs/op\n", rec.Bench, rec.Shape, rec.GFLOPS, rec.Allocs)
			base.Records = append(base.Records, rec)
		}
		for _, s := range gemmShapes {
			rec := benchInt8(s.m, s.k, s.n)
			fmt.Fprintf(os.Stderr, "#   %-12s %-12s %8.2f GOPS    %d allocs/op\n", rec.Bench, rec.Shape, rec.GFLOPS, rec.Allocs)
			base.Records = append(base.Records, rec)
		}
		rec := benchConv()
		fmt.Fprintf(os.Stderr, "#   %-12s %-12s %8.2f GFLOPS  %d allocs/op\n", rec.Bench, rec.Shape, rec.GFLOPS, rec.Allocs)
		base.Records = append(base.Records, rec)
	}

	buf, err := json.MarshalIndent(base, "", "  ")
	if err != nil {
		fmt.Fprintf(os.Stderr, "skynet-bench: %v\n", err)
		os.Exit(1)
	}
	buf = append(buf, '\n')
	if *out == "" {
		_, _ = os.Stdout.Write(buf)
		return
	}
	if err := os.WriteFile(*out, buf, 0o644); err != nil {
		fmt.Fprintf(os.Stderr, "skynet-bench: %v\n", err)
		os.Exit(1)
	}
}
