package main

import (
	"bytes"
	"context"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"

	"skynet/internal/analysis"
	"skynet/internal/detect"
)

func TestMain(m *testing.M) {
	pinScheduler()
	os.Exit(m.Run())
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

func mustSpec(t *testing.T) *spec {
	t.Helper()
	sp, err := loadSpec(".")
	if err != nil {
		t.Fatal(err)
	}
	return sp
}

func toyRun(t *testing.T, w workload, trace, corrupt bool) *result {
	t.Helper()
	rc := runConfig{seed: 5, seconds: 0.3, trace: trace, toy: true, corrupt: corrupt, outDir: t.TempDir()}
	r, err := w.run(context.Background(), rc)
	if err != nil {
		t.Fatalf("%s (trace %v): %v", w.name, trace, err)
	}
	return r
}

// TestBenchmarkJSON checks the contract file against the limits the
// acceptance driver states, so a bad edit fails here and not in the driver.
func TestBenchmarkJSON(t *testing.T) {
	sp := mustSpec(t)
	if len(sp.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the program has %d", len(sp.Workloads), len(workloads))
	}
	seen := map[string]bool{}
	name := func(n string) {
		if !nameRE.MatchString(n) {
			t.Errorf("name %q is outside the contract's alphabet", n)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}
	for i, w := range sp.Workloads {
		name(w.Name)
		if w.Name != workloads[i].name {
			t.Errorf("workload %d is %q in BENCHMARK.json and %q in the program", i, w.Name, workloads[i].name)
		}
		if w.Why == "" || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s needs a one-line why of at most 200 characters", w.Name)
		}
	}
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	hasSetup := false
	for _, m := range sp.EndToEnd {
		name(m.Name)
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
		if m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower" {
			hasSetup = true
		}
		if !unitRE.MatchString(m.Unit) {
			t.Errorf("%s: unit %q", m.Name, m.Unit)
		}
	}
	if !hasSetup {
		t.Error("no setup_s metric in seconds, lower is better")
	}
	for _, m := range sp.PerLayer {
		name(m.Name)
		if !unitRE.MatchString(m.Unit) {
			t.Errorf("%s: unit %q", m.Name, m.Unit)
		}
		if m.Better != "lower" && m.Better != "higher" {
			t.Errorf("%s: better %q", m.Name, m.Better)
		}
	}
	if len(sp.PerLayer) > 128 || len(sp.EndToEnd) > 16 {
		t.Errorf("%d end-to-end and %d per-layer metrics exceed the contract's 16 and 128", len(sp.EndToEnd), len(sp.PerLayer))
	}
	runs := 4 + 22*len(sp.Workloads)
	if sp.RunSeconds < 1 || sp.RunSeconds > 60 || runs*sp.RunSeconds > 3420 {
		t.Errorf("run_seconds %d: %d runs cannot end within 3420 s", sp.RunSeconds, runs)
	}
}

// TestSmoke runs every workload at toy size, untraced and traced, and
// checks that each name in BENCHMARK.json comes out exactly once and
// finite, that no op failed, and that the ledger's differences close.
func TestSmoke(t *testing.T) {
	sp := mustSpec(t)
	for _, w := range workloads {
		plain := toyRun(t, w, false, false)
		traced := toyRun(t, w, true, false)
		for _, r := range []*result{plain, traced} {
			if r.Attempted < 1 || r.Failed != 0 {
				t.Errorf("%s (traced %v): %d failed of %d attempted", w.name, r.Traced, r.Failed, r.Attempted)
			}
			if err := r.finite(); err != nil {
				t.Errorf("%s: %v", w.name, err)
			}
			line, err := sp.contractMetrics(r)
			if err != nil {
				t.Errorf("%s: %v", w.name, err)
				continue
			}
			want := sp.EndToEnd
			if r.Traced {
				want = sp.PerLayer
			}
			if len(line) != len(want) {
				t.Errorf("%s (traced %v): %d metrics on the result line, BENCHMARK.json declares %d", w.name, r.Traced, len(line), len(want))
			}
			for _, m := range want {
				got, ok := line[m.Name]
				if !ok || got.Unit != m.Unit || math.IsNaN(got.Value) || math.IsInf(got.Value, 0) {
					t.Errorf("%s: metric %s = %+v (present %v)", w.name, m.Name, got, ok)
				}
			}
		}
		for _, m := range sp.EndToEnd {
			if plain.Metrics[m.Name].Value <= 0 {
				t.Errorf("%s: end-to-end metric %s = %v, must never be 0", w.name, m.Name, plain.Metrics[m.Name].Value)
			}
		}
		if plain.Digest == "" || traced.Digest != plain.Digest {
			t.Errorf("%s: digests %q (untraced) and %q (traced) must be equal: same seed, same outputs", w.name, plain.Digest, traced.Digest)
		}
		if traced.TraceFile == "" {
			t.Errorf("%s: traced run wrote no span file", w.name)
		} else if st, err := os.Stat(traced.TraceFile); err != nil || st.Size() == 0 {
			t.Errorf("%s: span file: %v", w.name, err)
		}
		if w.name == "serve-http" {
			if v := traced.Metrics["serve.http_overhead_ms"].Value; v < 0 {
				t.Errorf("serve.http_overhead_ms = %v: the request's pieces add up to more than the request", v)
			}
		}
	}
}

// TestCorruptionIsCaught damages one output per workload and expects the
// correctness checks to count failed ops.
func TestCorruptionIsCaught(t *testing.T) {
	for _, w := range workloads {
		if r := toyRun(t, w, false, true); r.Failed == 0 {
			t.Errorf("%s: a corrupted output passed the correctness checks", w.name)
		}
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	xs := []float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}
	q1, q3 := quartiles(xs)
	if math.Abs(q1-2.75) > 1e-12 || math.Abs(q3-8.25) > 1e-12 {
		t.Errorf("quartiles = %v, %v; want 2.75, 8.25", q1, q3)
	}
	if s := spreadShare(xs); math.Abs(s-1) > 1e-12 {
		t.Errorf("spreadShare = %v, want 1", s)
	}
	// statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
	if q1, q3 := quartiles([]float64{3, 1, 2}); math.Abs(q1-1) > 1e-12 || math.Abs(q3-3) > 1e-12 {
		t.Errorf("quartiles of three = %v, %v; want 1, 3", q1, q3)
	}
}

func TestSelfTimeSubtractsChildrenOnce(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "parent", Start: 0, End: 100e6},
		{ID: 2, Parent: 1, Name: "child", Start: 10e6, End: 50e6},
		{ID: 3, Parent: 1, Name: "child", Start: 30e6, End: 70e6}, // overlaps the first
	}
	st := analyse(spans)
	if got := st.self["parent"][0]; math.Abs(got-40) > 1e-9 {
		t.Errorf("parent self time = %v ms, want 40 (100 minus the 60 its children cover)", got)
	}
	if got := st.total["child"]; len(got) != 2 || math.Abs(got[0]-40) > 1e-9 {
		t.Errorf("child durations = %v", got)
	}
}

func TestRoundRates(t *testing.T) {
	start := time.Unix(100, 0)
	var done []time.Time
	for i := 0; i < 40; i++ { // 10 completions per second for 4 s
		done = append(done, start.Add(time.Duration(i)*100*time.Millisecond+time.Millisecond))
	}
	done = append(done, start.Add(5*time.Second)) // finished after the phase: not counted
	got := roundRates(done, start, 4*time.Second, 4)
	if len(got) != 4 {
		t.Fatalf("%d rounds, want 4", len(got))
	}
	for i, v := range got {
		if math.Abs(v-10) > 1e-9 {
			t.Errorf("round %d: %v ops/s, want 10", i, v)
		}
	}
}

func TestJudgeRow(t *testing.T) {
	rss := specMetric{Name: "peak_rss_mb", Better: "lower", Bound: 0.15}
	ok := specMetric{Name: "ok_share", Better: "higher", Bound: 0.005}
	setup := specMetric{Name: "setup_s", Better: "lower", Bound: 0.25}
	allocs := specMetric{Name: "allocs_per_op", Better: "lower", Bound: 0.05}
	base := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	scale := func(xs []float64, f float64) []float64 {
		out := make([]float64, len(xs))
		for i, v := range xs {
			out[i] = v * f
		}
		return out
	}
	fill := func(v float64) []float64 { return scale([]float64{1, 1, 1, 1, 1, 1, 1, 1, 1, 1}, v) }
	noisy := []float64{80, 120, 95, 130, 70, 100, 125, 75, 110, 90}
	cases := []struct {
		name         string
		m            specMetric
		older, newer []float64
		want         string
	}{
		{"same", rss, base, scale(base, 1.01), verdictOK},
		{"more memory", rss, base, scale(base, 1.2), verdictRegression},
		{"less memory", rss, base, scale(base, 0.8), verdictBetter},
		{"spread wider than the bound", rss, noisy, scale(base, 1.05), verdictUnresolved},
		{"noisy but every run better", rss, noisy, scale(base, 0.5), verdictBetter},
		{"noisy and every run worse", rss, noisy, scale(base, 2), verdictRegression},
		{"one op in a thousand fails", ok, fill(1), fill(0.999), verdictOK},
		{"one op in a hundred fails", ok, fill(1), fill(0.99), verdictRegression},
		{"small set-up doubles, under the 0.5 s floor", setup, scale(base, 0.0003), scale(base, 0.0006), verdictOK},
		{"large set-up grows by a second", setup, scale(base, 0.02), scale(base, 0.03), verdictRegression},
		{"allocations from 0 to 1, under the floor of 2", allocs, fill(0), fill(1), verdictOK},
		{"allocations from 0 to 5", allocs, fill(0), fill(5), verdictRegression},
		{"allocations up a fifth", allocs, scale(base, 2.5), scale(base, 3), verdictRegression},
	}
	for _, c := range cases {
		if _, _, _, got := judgeRow(c.m, c.older, c.newer); got != c.want {
			t.Errorf("%s: verdict %q, want %q", c.name, got, c.want)
		}
	}
}

func TestCompareRefusesUnlikeRuns(t *testing.T) {
	sp := mustSpec(t)
	dir := t.TempDir()
	mk := func(file string, env environment, seed int64, rss float64) string {
		r := newResult("serve-http", runConfig{seed: seed, seconds: 24})
		for _, m := range sp.allMetrics() {
			r.set(m.Name, 10, m.Unit)
		}
		r.set("peak_rss_mb", rss, "MB")
		r.Attempted, r.Correct = 100, true
		path := filepath.Join(dir, file)
		if err := (&resultSet{Env: env, Runs: []*result{r}}).write(path); err != nil {
			t.Fatal(err)
		}
		return path
	}
	env := environment{GOMAXPROCS: 2, Kernel: "avx2", Int8Kernel: "avx2"}
	base := mk("base.json", env, 1, 10)
	var out bytes.Buffer
	if err := compareFiles(&out, sp, base, mk("same.json", env, 1, 10.1)); err != nil {
		t.Errorf("equal runs: %v\n%s", err, out.String())
	}
	if err := compareFiles(&out, sp, base, mk("slow.json", env, 1, 20)); err == nil {
		t.Error("a peak resident set twice as large passed")
	}
	other := env
	other.Kernel = "purego"
	for name, path := range map[string]string{
		"another kernel":     mk("kernel.json", other, 1, 10),
		"another seed":       mk("seed.json", env, 2, 10),
		"another GOMAXPROCS": mk("procs.json", environment{GOMAXPROCS: 4, Kernel: "avx2", Int8Kernel: "avx2"}, 1, 10),
	} {
		if err := compareFiles(&out, sp, base, path); err == nil || !strings.Contains(err.Error(), "refusing") {
			t.Errorf("%s: compare did not refuse (%v)", name, err)
		}
	}
}

func TestFrameBankBodiesDecodeToTheirFrames(t *testing.T) {
	sz := serveSizes(true)
	bank, err := newFrameBank(sceneConfig(sz.w, sz.h, 3), sz.bases)
	if err != nil {
		t.Fatal(err)
	}
	for _, u := range []int{0, 1, sz.bases, 5*sz.bases + 3, warmBase + 1} {
		got, err := detect.DecodeRequest(bytes.NewReader(bank.body(nil, u)))
		if err != nil {
			t.Fatalf("frame %d: %v", u, err)
		}
		want := bank.frame(u)
		for i := range want.Data {
			if math.Float32bits(got.Data[i]) != math.Float32bits(want.Data[i]) {
				t.Fatalf("frame %d, pixel %d: body decodes to %v, frame holds %v", u, i, got.Data[i], want.Data[i])
			}
		}
	}
	seen := map[int]int{}
	for op := 0; op < 400; op++ {
		u := frameOf(op)
		if prev, dup := seen[u]; dup != isRepeat(op) {
			t.Fatalf("op %d sends frame %d (first sent by op %d), isRepeat says %v", op, u, prev, isRepeat(op))
		}
		if !isRepeat(op) {
			seen[u] = op
		}
	}
}

// TestLintClean holds the benchmark to the repository's own linter with no
// waivers: the root module's TestRealTreeClean cannot see a nested module.
func TestLintClean(t *testing.T) {
	if testing.Short() {
		t.Skip("loads and type-checks the package through the go tool")
	}
	pkgs, err := analysis.NewLoader(".").Load("./...")
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range analysis.Run(pkgs, analysis.All) {
		t.Errorf("%s:%d: [%s] %s", d.File, d.Line, d.Checker, d.Message)
	}
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range files {
		src, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		if !strings.HasSuffix(f, "_test.go") && bytes.Contains(src, []byte("skynet:nolint")) {
			t.Errorf("%s carries a lint waiver; the benchmark must pass without any", f)
		}
	}
}
