// Command e2e is the repository's benchmark: four workloads driven through
// the system's real front doors (detect.NewStreamExecutor, serve.Pool's
// HTTP handler over loopback TCP, serve.TrackService), end-to-end metrics
// with fixed regression bounds, and a traced mode that produces the
// per-layer ledger. BENCHMARK.json at the repository root names every
// metric; bench/README.md says what each one means and predicts.
//
// Usage (from bench/, or through bench/run.sh from the root):
//
//	go run ./e2e                                   # every workload, end to end
//	go run ./e2e -trace 1                          # every workload, per-layer ledger
//	go run ./e2e -workload serve-http -seed 3      # one workload
//	go run ./e2e -runs 10 -out results.json        # ten seeds per workload, saved
//	go run ./e2e -compare old.json new.json        # judge new against old
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

// workload is one named set of inputs the benchmark runs.
type workload struct {
	name string
	run  func(ctx context.Context, rc runConfig) (*result, error)
}

var workloads = []workload{
	{"stream-f32", func(ctx context.Context, rc runConfig) (*result, error) { return runStream(ctx, rc, false) }},
	{"stream-int8", func(ctx context.Context, rc runConfig) (*result, error) { return runStream(ctx, rc, true) }},
	{"serve-http", runServe},
	{"track-sessions", runTrack},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// resultSet is a result file: the environment plus one or more runs.
type resultSet struct {
	Env  environment `json:"env"`
	Runs []*result   `json:"runs"`
}

func readResultSet(path string) (*resultSet, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rs resultSet
	if err := json.Unmarshal(data, &rs); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &rs, nil
}

func (rs *resultSet) write(path string) error {
	data, err := json.MarshalIndent(rs, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// options are the command line.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    int
	runs     int
	out      string
	outDir   string
	toy      bool
	compare  bool
}

func main() {
	var o options
	flag.StringVar(&o.workload, "workload", "", "workload to run in this process (default: each one in a child process)")
	flag.Int64Var(&o.seed, "seed", 1, "seed the workload's inputs are generated from")
	flag.Float64Var(&o.seconds, "seconds", 0, "seconds of timed work per run (default: run_seconds from BENCHMARK.json)")
	flag.IntVar(&o.trace, "trace", 0, "1 = traced run: per-layer ledger and span file instead of end-to-end metrics")
	flag.IntVar(&o.runs, "runs", 1, "runs per workload, on seeds seed, seed+1, ... (all-workloads mode)")
	flag.StringVar(&o.out, "out", "", "write the runs as a result file")
	flag.StringVar(&o.outDir, "outdir", "", "directory for span files (default: <bench>/out)")
	flag.BoolVar(&o.toy, "toy", false, "tiny models and frames (the smoke test's size)")
	flag.BoolVar(&o.compare, "compare", false, "compare two result files: -compare old.json new.json")
	flag.Parse()
	if err := realMain(o, flag.Args()); err != nil {
		fmt.Fprintln(os.Stderr, "e2e:", err)
		os.Exit(1)
	}
}

// errRunFailed says a run completed but its outputs were wrong or its
// operations failed; the result is still printed.
var errRunFailed = errors.New("a correctness check failed or an operation failed")

func realMain(o options, args []string) error {
	sp, err := loadSpec(".")
	if err != nil {
		return err
	}
	if o.compare {
		if len(args) != 2 {
			return errors.New("usage: -compare old.json new.json")
		}
		return compareFiles(os.Stdout, sp, args[0], args[1])
	}
	if o.seconds <= 0 {
		o.seconds = float64(sp.RunSeconds)
	}
	if o.outDir == "" {
		o.outDir = defaultOutDir()
	}
	if o.workload == "" {
		return runAll(sp, o)
	}
	w, ok := findWorkload(o.workload)
	if !ok {
		return fmt.Errorf("unknown workload %q", o.workload)
	}
	pinScheduler()
	rc := runConfig{seed: o.seed, seconds: o.seconds, trace: o.trace != 0, toy: o.toy, outDir: o.outDir}
	start := time.Now()
	r, err := w.run(context.Background(), rc)
	if err != nil {
		return fmt.Errorf("%s: %w", w.name, err)
	}
	r.WallS = time.Since(start).Seconds()
	r.Correct = r.Failed == 0
	if err := r.finite(); err != nil {
		return fmt.Errorf("%s: %w", w.name, err)
	}
	line, err := sp.contractMetrics(r)
	if err != nil {
		return err
	}
	env := currentEnv(commitID())
	if o.out != "" {
		if err := (&resultSet{Env: env, Runs: []*result{r}}).write(o.out); err != nil {
			return err
		}
	}
	printRun(sp, env, r)
	last, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int64             `json:"attempted"`
		Failed    int64             `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, line})
	if err != nil {
		return err
	}
	fmt.Println(string(last))
	if !r.Correct {
		return errRunFailed
	}
	return nil
}

// pinScheduler sets GOMAXPROCS to min(nproc, 4), the width the load
// generators are sized for. tensor.MaxParallelism and nn.MaxParallelism stay
// at their shipped defaults (one kernel worker per P): that is what every
// binary of the repository serves with, so that is what is measured.
func pinScheduler() { runtime.GOMAXPROCS(clientLimit()) }

// defaultOutDir is <bench>/out when the bench directory can be found from
// the working directory, else ./out.
func defaultOutDir() string {
	for _, dir := range []string{"bench", "."} {
		if _, err := os.Stat(filepath.Join(dir, "e2e", "main.go")); err == nil {
			return filepath.Join(dir, "out")
		}
	}
	return "out"
}

// commitID identifies the measured tree: BENCH_COMMIT when set, else git's
// HEAD, else "unknown" (the acceptance driver's checkout is not a git
// repository).
func commitID() string {
	if c := os.Getenv("BENCH_COMMIT"); c != "" {
		return c
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	out, err := exec.CommandContext(ctx, "git", "rev-parse", "--short", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

// printRun prints one run for a reader: every metric by name with its
// unit, the sample counts behind the percentiles, and the output digest.
func printRun(sp *spec, env environment, r *result) {
	mode := "end-to-end"
	if r.Traced {
		mode = "per-layer (traced)"
	}
	fmt.Printf("== %s  seed %d  %s  %.0fs  [nproc %d, GOMAXPROCS %d, kernels %s/%s, %s, commit %s]\n",
		r.Workload, r.Seed, mode, r.Seconds, env.NumCPU, env.GOMAXPROCS, env.Kernel, env.Int8Kernel, env.GoVersion, env.Commit)
	for _, m := range sp.allMetrics() {
		if got, ok := r.Metrics[m.Name]; ok {
			fmt.Printf("  %-34s %14.4f %s\n", m.Name, got.Value, m.Unit)
		}
	}
	fmt.Printf("  %-34s %14.6f ratio  (%d failed of %d attempted; ok_share is 1 minus this)\n", "fail_share", r.failShare(), r.Failed, r.Attempted)
	fmt.Printf("  output_digest %s   samples %v   wall %.1fs\n", r.Digest, r.Samples, r.WallS)
	if r.TraceFile != "" {
		fmt.Printf("  spans written to %s\n", r.TraceFile)
	}
	if !r.Valid {
		fmt.Printf("  INVALID RUN: %s\n", r.Invalid)
	}
}

// runAll runs every workload in a child process of its own (so that
// peak_rss_mb is the workload's, not the sum of what ran before it), o.runs
// times each, and gathers the results.
func runAll(sp *spec, o options) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	if err := os.MkdirAll(o.outDir, 0o755); err != nil {
		return err
	}
	tmp, err := os.MkdirTemp(o.outDir, "runs-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(tmp)
	set := &resultSet{}
	failed := false
	for i := 0; i < o.runs; i++ {
		for _, w := range sp.Workloads {
			file := filepath.Join(tmp, fmt.Sprintf("%s-%d.json", w.Name, i))
			cmd := exec.Command(self,
				"-workload", w.Name,
				"-seed", fmt.Sprint(o.seed+int64(i)),
				"-seconds", fmt.Sprint(o.seconds),
				"-trace", fmt.Sprint(o.trace),
				"-outdir", o.outDir,
				"-out", file,
				fmt.Sprintf("-toy=%v", o.toy))
			cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
			runErr := cmd.Run()
			rs, err := readResultSet(file)
			if err != nil {
				return fmt.Errorf("%s: %v (child: %v)", w.Name, err, runErr)
			}
			if runErr != nil {
				failed = true
			}
			set.Env = rs.Env
			set.Runs = append(set.Runs, rs.Runs...)
		}
	}
	if o.out != "" {
		if err := set.write(o.out); err != nil {
			return err
		}
	}
	if o.trace == 0 {
		printSummary(sp, set)
	}
	if failed {
		return errRunFailed
	}
	return nil
}

// printSummary prints, per workload and end-to-end metric, the median over
// the set's runs and their interquartile spread as a share of it.
func printSummary(sp *spec, set *resultSet) {
	fmt.Printf("\n== summary: median over runs (interquartile spread / median; bound)\n")
	for _, wl := range sp.Workloads {
		runs := set.runsOf(wl.Name)
		if len(runs) == 0 {
			continue
		}
		fmt.Printf("%s (%d runs)\n", wl.Name, len(runs))
		for _, m := range sp.EndToEnd {
			vs := values(runs, m.Name)
			fmt.Printf("  %-20s %12.4f %-6s spread %5.1f%%  bound %4.1f%%\n",
				m.Name, median(vs), m.Unit, 100*spreadShare(vs), 100*m.Bound)
		}
		for _, m := range sp.speedMetrics() {
			vs := values(runs, m.Name)
			fmt.Printf("  %-20s %12.4f %-6s spread %5.1f%%  ungated\n",
				m.Name, median(vs), m.Unit, 100*spreadShare(vs))
		}
	}
}

// runsOf returns the set's untraced runs of one workload.
func (rs *resultSet) runsOf(workload string) []*result {
	var out []*result
	for _, r := range rs.Runs {
		if r.Workload == workload && !r.Traced {
			out = append(out, r)
		}
	}
	return out
}

// values extracts one metric across runs.
func values(runs []*result, name string) []float64 {
	out := make([]float64, 0, len(runs))
	for _, r := range runs {
		if m, ok := r.Metrics[name]; ok {
			out = append(out, m.Value)
		}
	}
	return out
}
