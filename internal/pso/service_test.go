package pso

// Service tests drive the job API over real HTTP: submit/status/result
// lifecycle, content-addressed idempotency, metrics, and the core resume
// property — a service started over a dead process's checkpoint finishes
// the search with the bitwise trajectory of an uninterrupted run.

import (
	"bytes"
	"encoding/json"
	"errors"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"

	"skynet/internal/bundle"
	"skynet/internal/nn"
	"skynet/internal/tensor"
)

func testJobSpec() JobSpec {
	return JobSpec{
		Config: Config{
			Groups: 2, PerGroup: 3, Iterations: 3,
			Slots: 3, Pools: 2,
			ChannelMin: 4, ChannelMax: 24,
			Gamma: 0.5,
			Seed:  5,
		},
		// Pinned factors: wall-clock calibration plays no role in the
		// asserted trajectories.
		Factors: EngineFactors{Float32NSPerMAC: 2.5, Int8NSPerMAC: 1.25},
	}
}

// Wait blocks until the job is done or failed, and returns at once for an
// ID the service does not know.
func (s *Service) Wait(id string) {
	for {
		if st, ok := s.Status(id); !ok || st.State == "done" || st.State == "failed" {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestJobSpecWireFormat pins the snake_case wire names of the factors
// block. The fields used to lack json tags, so a client pinning
// "float32_ns_per_mac" was silently ignored and the job fell back to
// wall-clock calibration — the opposite of what pinning is for.
func TestJobSpecWireFormat(t *testing.T) {
	var spec JobSpec
	raw := `{"seed":1,"factors":{"float32_ns_per_mac":2.5,"int8_ns_per_mac":1.25}}`
	if err := json.Unmarshal([]byte(raw), &spec); err != nil {
		t.Fatal(err)
	}
	if spec.Factors != (EngineFactors{Float32NSPerMAC: 2.5, Int8NSPerMAC: 1.25}) {
		t.Fatalf("snake_case factors did not unmarshal: %+v", spec.Factors)
	}
}

// pinnedSpecs are job bodies with the ID and Config.Digest each had when
// JobSpec still declared its own copy of every search field: the README's
// example, one setting every member, and the design flow's default search
// (core.DefaultFlowConfig's spec on the wire).
var pinnedSpecs = []struct{ body, id, digest string }{
	{`{}`, "job-1d349c9258c7e9f2", "9dcec0f74a649858"},
	{`{"iterations":4,"seed":1}`, "job-8d588afda8de896f", "1f36510b52198cef"},
	{`{"groups":3,"per_group":5,"iterations":6,"slots":5,"pools":3,"channel_min":6,"channel_max":40,` +
		`"alpha":0.02,"gamma":0.5,"beta":{"fpga":3,"gpu":0.5,"cpu-i8":0.25},"target_ms":{"fpga":20,"gpu":8,"cpu-i8":30},` +
		`"seed":42,"w":64,"h":32,"train_n":16,"val_n":8,"batch_size":2,"factors":{"float32_ns_per_mac":1.5,"int8_ns_per_mac":0.75}}`,
		"job-a94c0cae9378b98b", "b0a3e90103f4b1b1"},
	{`{"per_group":3,"iterations":3,"slots":4,"pools":2,"channel_min":8,"channel_max":64,"alpha":0.005,` +
		`"beta":{"fpga":2,"gpu":1},"target_ms":{"fpga":40,"gpu":15},"seed":1,"w":48,"h":24,"train_n":48,"val_n":24,"batch_size":8}`,
		"job-0cc1c1cb160c61fb", "6ef99ef396f6d158"},
}

// TestJobIdentityPinned: a job resubmitted after an upgrade must find the
// <id>.ckpt its ID names, and the checkpoint must pass the digest check, so
// neither hash may move — not even by a reordered JSON member.
func TestJobIdentityPinned(t *testing.T) {
	for _, p := range pinnedSpecs {
		var spec JobSpec
		if err := json.Unmarshal([]byte(p.body), &spec); err != nil {
			t.Fatal(err)
		}
		spec.normalize()
		if id, digest := spec.ID(), spec.Digest(); id != p.id || digest != p.digest {
			t.Errorf("%s: ID %s digest %s, want %s %s", p.body, id, digest, p.id, p.digest)
		}
	}
}

// TestJobSpecWireDropsWorkers: the evaluation pool's size is the process's
// to choose, not a client's — a body asking for 768 workers gets the
// default pool and the job it would have got without asking.
func TestJobSpecWireDropsWorkers(t *testing.T) {
	var plain, asking JobSpec
	if err := json.Unmarshal([]byte(`{"groups":12,"per_group":64}`), &plain); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal([]byte(`{"groups":12,"per_group":64,"workers":768}`), &asking); err != nil {
		t.Fatal(err)
	}
	if asking.Workers != 0 || asking.ID() != plain.ID() {
		t.Fatalf("workers %d, ID %s, want 0 and %s", asking.Workers, asking.ID(), plain.ID())
	}
}

// FuzzJobSpec: whatever body reaches the door, decoding, normalizing,
// checking and naming it never panics, and a spec Check accepts places its
// pools among its slots on a frame within the pixel cap. It runs no search.
func FuzzJobSpec(f *testing.F) {
	for _, p := range pinnedSpecs {
		f.Add([]byte(p.body))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		var spec JobSpec
		if json.Unmarshal(body, &spec) != nil {
			return
		}
		spec.normalize()
		if spec.Check() != nil {
			return
		}
		if spec.Pools > spec.Slots || spec.W*spec.H > maxFramePixels {
			t.Fatalf("Check accepted %d pools among %d slots on a %d×%d frame", spec.Pools, spec.Slots, spec.W, spec.H)
		}
		_ = spec.ID()
	})
}

func postJob(t *testing.T, url string, spec JobSpec) JobStatus {
	t.Helper()
	body, _ := json.Marshal(spec)
	resp, err := http.Post(url+"/search/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit status %d", resp.StatusCode)
	}
	var st JobStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	return st
}

func getJSON(t *testing.T, url string, out any) int {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil && resp.StatusCode < 300 {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatal(err)
		}
	}
	return resp.StatusCode
}

// TestServiceJobLifecycle runs in -short mode too: it is the coverage
// anchor for the whole job API and stays under a second at this scale.
func TestServiceJobLifecycle(t *testing.T) {
	svc := NewService(t.TempDir())
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()

	spec := testJobSpec()
	st := postJob(t, ts.URL, spec)
	if st.ID != spec.ID() {
		t.Fatalf("job ID %s, want content digest %s", st.ID, spec.ID())
	}
	if st.IterationsTotal != 3 {
		t.Fatalf("iterations total %d", st.IterationsTotal)
	}

	// Resubmitting the identical spec joins the same job.
	if st2 := postJob(t, ts.URL, spec); st2.ID != st.ID {
		t.Fatalf("resubmit minted a new job: %s vs %s", st2.ID, st.ID)
	}

	svc.Wait(st.ID)

	var final JobStatus
	if code := getJSON(t, ts.URL+"/search/jobs/"+st.ID, &final); code != http.StatusOK {
		t.Fatalf("status code %d", code)
	}
	if final.State != "done" || final.IterationsDone != 3 {
		t.Fatalf("final status %+v", final)
	}
	if final.CacheMisses == 0 {
		t.Fatal("a finished search must have evaluated something")
	}

	var res JobResult
	if code := getJSON(t, ts.URL+"/search/jobs/"+st.ID+"/result", &res); code != http.StatusOK {
		t.Fatalf("result code %d", code)
	}
	if len(res.History) != 3 || len(res.Best.Net.Channels) == 0 {
		t.Fatalf("result %+v", res)
	}
	if res.Op.IoU != res.Best.QuantAcc {
		t.Fatalf("operating point IoU %v must be the best's measured int8 accuracy %v",
			res.Op.IoU, res.Best.QuantAcc)
	}
	if res.Factors.Zero() {
		t.Fatal("result must report the engine factors the job priced with")
	}

	var list []JobStatus
	if code := getJSON(t, ts.URL+"/search/jobs", &list); code != http.StatusOK || len(list) != 1 {
		t.Fatalf("list code %d len %d", code, len(list))
	}

	var m ServiceMetrics
	if code := getJSON(t, ts.URL+"/metrics", &m); code != http.StatusOK {
		t.Fatalf("metrics code %d", code)
	}
	if m.Jobs["done"] != 1 {
		t.Fatalf("metrics jobs %v", m.Jobs)
	}
	if m.EvalLatency.MeanMS <= 0 {
		t.Fatal("per-particle eval latency histogram never observed anything")
	}

	if code := getJSON(t, ts.URL+"/search/jobs/nope", nil); code != http.StatusNotFound {
		t.Fatalf("unknown job code %d", code)
	}
}

// TestServiceRunsOneJobAtATime: twenty distinct specs submitted at once wait
// in one line. Every snapshot of the job list shows at most one job running
// and the queued ones at places 1 to k, and each job ends done with the
// history and best of its search run alone, bit for bit.
func TestServiceRunsOneJobAtATime(t *testing.T) {
	svc := NewService(t.TempDir())
	t.Cleanup(svc.Close) // before the directory goes: no job may still write into it
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()
	specs := make([]JobSpec, 20)
	errs := make(chan error, len(specs))
	for i := range specs {
		specs[i] = testJobSpec()
		specs[i].Groups, specs[i].PerGroup, specs[i].Iterations = 1, 2, 2
		specs[i].W, specs[i].H, specs[i].TrainN, specs[i].ValN = 4, 4, 2, 1
		specs[i].Seed = int64(100 + i)
		specs[i].normalize()
		go func() {
			_, err := svc.Submit(specs[i])
			errs <- err
		}()
	}
	for range specs {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	for done := 0; done < len(specs); time.Sleep(time.Millisecond) {
		var list []JobStatus
		getJSON(t, ts.URL+"/search/jobs", &list)
		running, places := 0, []int{}
		done = 0
		for _, st := range list {
			switch st.State {
			case "running":
				running++
			case "queued":
				places = append(places, st.Position)
			case "done":
				done++
			default:
				t.Fatalf("job %s: %+v", st.ID, st)
			}
		}
		slices.Sort(places)
		for i, p := range places {
			if p != i+1 {
				t.Fatalf("the queued jobs are at places %v, want 1 to %d", places, len(places))
			}
		}
		if running > 1 {
			t.Fatalf("%d jobs running at once", running)
		}
	}
	for _, spec := range specs {
		alone, err := SearchFrom(spec.Config, spec.NewEvaluator(), nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		res, _ := svc.Result(spec.ID())
		same := func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }
		if !slices.EqualFunc(res.History, alone.History, same) || !same(res.Best.Fit, alone.Best.Fit) || res.Best.Net.String() != alone.Best.Net.String() {
			t.Fatalf("seed %d: queued job's history %v and best %v, alone %v and %v", spec.Seed, res.History, res.Best.Net, alone.History, alone.Best.Net)
		}
	}
}

// TestServiceRefusesGhostBundles: a group replicates one enumerated Bundle,
// so a spec with more groups than the 12 Bundles is refused at Submit, and
// the HTTP door answers it 400 (a client error, not a 500) with no job
// started.
func TestServiceRefusesGhostBundles(t *testing.T) {
	svc := NewService(t.TempDir())
	spec := testJobSpec()
	spec.Groups = len(bundle.Enumerate()) + 1
	if _, err := svc.Submit(spec); !errors.Is(err, errBadSpec) {
		t.Fatalf("Submit of %d groups: err %v, want a spec error", spec.Groups, err)
	}

	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()
	body, _ := json.Marshal(spec)
	resp, err := http.Post(ts.URL+"/search/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("POST of %d groups: status %d, want 400", spec.Groups, resp.StatusCode)
	}
	var list []JobStatus
	if code := getJSON(t, ts.URL+"/search/jobs", &list); code != http.StatusOK || len(list) != 0 {
		t.Fatalf("a refused spec left jobs behind: code %d, %+v", code, list)
	}
}

// TestServiceRefusesOversizedSpec: a spec body past the cap is a 413 read no
// further than the cap, however it is padded — here a 2 MiB unknown member,
// which the decoder would otherwise buffer whole and then ignore — and no
// job starts.
func TestServiceRefusesOversizedSpec(t *testing.T) {
	svc := NewService(t.TempDir())
	body, _ := json.Marshal(testJobSpec())
	body = append(body[:len(body)-1], `,"padding":"`...)
	body = append(append(body, bytes.Repeat([]byte("x"), 2<<20)...), `"}`...)
	rec := httptest.NewRecorder()
	svc.handleSubmit(rec, httptest.NewRequest(http.MethodPost, "/search/jobs", bytes.NewReader(body)))
	if rec.Code != http.StatusRequestEntityTooLarge {
		t.Fatalf("a %d-byte spec: status %d, want 413", len(body), rec.Code)
	}
	if jobs := svc.statuses(); len(jobs) != 0 {
		t.Fatalf("a refused spec started %d jobs", len(jobs))
	}
}

// TestServiceRefusesSpecsItCannotRun: a spec whose job would panic in an
// evaluator goroutine — and take the process with it — or ask for more than
// a slice can hold is a 400 at the door, and no job starts. A frame exactly
// as small as the poolings allow runs to the end.
func TestServiceRefusesSpecsItCannotRun(t *testing.T) {
	svc := NewService(t.TempDir())
	submit := func(spec JobSpec) int {
		body, _ := json.Marshal(spec)
		rec := httptest.NewRecorder()
		svc.handleSubmit(rec, httptest.NewRequest(http.MethodPost, "/search/jobs", bytes.NewReader(body)))
		return rec.Code
	}
	for name, mut := range map[string]func(*JobSpec){
		"3×2 frame under 2 poolings": func(j *JobSpec) { j.W, j.H = 3, 2 },
		"1×1 frame":                  func(j *JobSpec) { j.W, j.H = 1, 1 },
		"frame of 2^60 pixels":       func(j *JobSpec) { j.W, j.H = 1<<30, 1<<30 },
		"frame side past the cap":    func(j *JobSpec) { j.W, j.H = 1<<62, 4 },
		"training split":             func(j *JobSpec) { j.TrainN = maxSamples + 1 },
		"validation split":           func(j *JobSpec) { j.ValN = 1 << 40 },
		"batch size":                 func(j *JobSpec) { j.BatchSize = maxBatchSize + 1 },
		"particles per group":        func(j *JobSpec) { j.PerGroup = maxPerGroup + 1 },
		"iterations":                 func(j *JobSpec) { j.Iterations = maxIterations + 1 },
		"slots":                      func(j *JobSpec) { j.Slots = 17 },
		"more pools than slots":      func(j *JobSpec) { j.Slots, j.Pools = 3, 4 },
		"channels":                   func(j *JobSpec) { j.ChannelMax = 4096 },
		"channel floor overflowing":  func(j *JobSpec) { j.ChannelMin, j.ChannelMax = 1<<61, 0 },
		"ghost bundles":              func(j *JobSpec) { j.Groups = len(bundle.Enumerate()) + 1 },
	} {
		spec := testJobSpec()
		mut(&spec)
		if code := submit(spec); code != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", name, code)
		}
	}
	if jobs := svc.statuses(); len(jobs) != 0 {
		t.Fatalf("refused specs left %d jobs behind", len(jobs))
	}

	spec := testJobSpec()
	spec.W, spec.H = 4, 4 // two poolings: 4 → 2 → 1
	spec.Iterations = 1
	if code := submit(spec); code != http.StatusAccepted {
		t.Fatalf("a 4×4 frame under 2 poolings: status %d, want 202", code)
	}
	svc.Wait(spec.ID())
	if st, _ := svc.Status(spec.ID()); st.State != "done" {
		t.Fatalf("the 4×4 job ended %+v", st)
	}
}

func TestServiceResultBeforeDone(t *testing.T) {
	if testing.Short() {
		t.Skip("real-engine search service in -short mode")
	}
	svc := NewService(t.TempDir())
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()
	spec := testJobSpec()
	spec.Seed = 99 // distinct job from the lifecycle test
	st := postJob(t, ts.URL, spec)
	// Immediately after submit the result is typically not ready: the
	// handler must answer 409-with-status, never 404 or a partial result.
	code := getJSON(t, ts.URL+"/search/jobs/"+st.ID+"/result", nil)
	if code != http.StatusConflict && code != http.StatusOK {
		t.Fatalf("pre-completion result code %d", code)
	}
	svc.Wait(st.ID)
	if code := getJSON(t, ts.URL+"/search/jobs/"+st.ID+"/result", nil); code != http.StatusOK {
		t.Fatalf("post-completion result code %d", code)
	}
}

// TestServiceUnreadableCheckpointLeavesNoJob: a checkpoint that cannot be
// read refuses the submission and leaves nothing behind — no job that never
// runs, answers "queued" to the next submission, hangs Wait and counts in
// /metrics.
func TestServiceUnreadableCheckpointLeavesNoJob(t *testing.T) {
	svc := NewService(t.TempDir())
	spec := testJobSpec()
	spec.normalize()
	id := spec.ID()
	if err := os.WriteFile(svc.CheckpointPath(id), []byte("not a checkpoint"), 0o644); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if st, err := svc.Submit(spec); err == nil {
			t.Fatalf("submission %d over an unreadable checkpoint: err=nil state=%q", i+1, st.State)
		}
	}
	if st, ok := svc.Status(id); ok {
		t.Fatalf("refused job left in the table: %+v", st)
	}
	waited := make(chan struct{})
	go func() { svc.Wait(id); close(waited) }()
	select {
	case <-waited:
	case <-time.After(10 * time.Second):
		t.Fatal("Wait on a refused job did not return")
	}
	if jobs := svc.Metrics().Jobs; len(jobs) != 0 {
		t.Fatalf("/metrics counts %v after a refused submission, want no job", jobs)
	}
}

// TestFormatOneCheckpointIsRefused: a format-1 checkpoint caches candidate
// prices from the retired two-model FPGA estimate, and gob would decode them
// into today's fpga.Report without complaint. Neither LoadCheckpoint nor a
// submission over such a file may resume on them.
func TestFormatOneCheckpointIsRefused(t *testing.T) {
	svc := NewService(t.TempDir())
	spec := testJobSpec()
	spec.normalize()
	path := svc.CheckpointPath(spec.ID())
	ck := Checkpoint{Format: 1, ConfigHash: spec.Digest()}
	if err := ck.Save(path); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadCheckpoint(path); err == nil {
		t.Fatal("LoadCheckpoint accepted a format-1 checkpoint")
	}
	if st, err := svc.Submit(spec); err == nil {
		svc.Wait(st.ID)
		t.Fatalf("Submit resumed over a format-1 checkpoint: %+v", st)
	}
}

// TestServiceResumesKilledJob simulates process death: a first "process"
// runs the job's search directly and is killed after one iteration,
// leaving the checkpoint file a real service would have written. A fresh
// Service over the same directory then receives the same submission and
// must resume — not restart — and land on the uninterrupted reference
// trajectory.
func TestServiceResumesKilledJob(t *testing.T) {
	if testing.Short() {
		t.Skip("real-engine search service in -short mode")
	}
	spec := testJobSpec()
	spec.Seed = 17
	spec.normalize()
	id := spec.ID()

	// Reference: never interrupted.
	ref, err := SearchFrom(spec.Config, spec.NewEvaluator(), nil, nil)
	if err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	dead := NewService(dir)
	killed := func() (res Result, err error) {
		defer func() { recover() }()
		return SearchFrom(spec.Config, spec.NewEvaluator(), nil, func(ck Checkpoint) error {
			if err := ck.Save(dead.CheckpointPath(id)); err != nil {
				return err
			}
			if ck.Iter == 1 {
				panic("killed")
			}
			return nil
		})
	}
	killed()

	svc := NewService(dir)
	st, err := svc.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	if !st.Resumed || st.IterationsDone != 1 {
		t.Fatalf("restarted service did not resume from the checkpoint: %+v", st)
	}
	svc.Wait(id)
	res, ok := svc.Result(id)
	if !ok {
		t.Fatal("resumed job produced no result")
	}
	final, _ := svc.Status(id)
	if final.State != "done" {
		t.Fatalf("resumed job state %+v", final)
	}
	if len(res.History) != len(ref.History) {
		t.Fatalf("resumed history %v vs reference %v", res.History, ref.History)
	}
	for i := range ref.History {
		if res.History[i] != ref.History[i] {
			t.Fatalf("trajectory diverged at iteration %d: %v vs %v", i, res.History, ref.History)
		}
	}
	if res.Best.Fit != ref.Best.Fit || res.Best.Net.String() != ref.Best.Net.String() {
		t.Fatalf("resumed best %+v differs from reference %+v", res.Best, ref.Best)
	}
}

// TestServiceRetriesFailedJob: a job that failed on a transient fault — its
// checkpoint directory gone when it came to save — runs again when its spec
// is resubmitted once the directory is back, and ends done on the trajectory
// of an uninterrupted run.
func TestServiceRetriesFailedJob(t *testing.T) {
	if testing.Short() {
		t.Skip("real-engine search service in -short mode")
	}
	spec := testJobSpec()
	spec.Seed = 23
	spec.normalize()
	id := spec.ID()
	ref, err := SearchFrom(spec.Config, spec.NewEvaluator(), nil, nil)
	if err != nil {
		t.Fatal(err)
	}

	dir := filepath.Join(t.TempDir(), "jobs")
	svc := NewService(dir) // the directory is not there yet
	if _, err := svc.Submit(spec); err != nil {
		t.Fatal(err)
	}
	svc.Wait(id)
	if st, _ := svc.Status(id); st.State != "failed" || !strings.Contains(st.Error, "saving checkpoint") {
		t.Fatalf("job without its checkpoint directory: %+v, want failed saving a checkpoint", st)
	}
	if err := os.Mkdir(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	st, err := svc.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	if st.State == "failed" {
		t.Fatalf("resubmitting a failed job returned it as it was: %+v", st)
	}
	svc.Wait(id)
	res, ok := svc.Result(id)
	if final, _ := svc.Status(id); !ok || final.State != "done" {
		t.Fatalf("retried job: %+v", final)
	}
	if !slices.Equal(res.History, ref.History) || res.Best.Net.String() != ref.Best.Net.String() {
		t.Fatalf("retried job's history %v and best %v, uninterrupted %v and %v", res.History, res.Best.Net, ref.History, ref.Best.Net)
	}
}

// TestServiceCloseStopsAtACheckpoint: Close during a job lets it save its
// next checkpoint and ends it failed, leaves a queued job unstarted, returns
// with nothing left writing the checkpoint, and refuses submissions, the HTTP
// door with 503. Resubmitted to a new service over the same directory, the
// job resumes and ends on the history and best of an uninterrupted run, bit
// for bit. The job's first evaluation waits on its evaluator's cache lock,
// which the test holds from before the job starts until Close has begun: a
// search of a few milliseconds could otherwise end before the Close.
func TestServiceCloseStopsAtACheckpoint(t *testing.T) {
	spec := testJobSpec()
	spec.Groups, spec.PerGroup, spec.Iterations = 1, 2, 12
	spec.W, spec.H, spec.TrainN, spec.ValN = 4, 4, 2, 1
	spec.Seed = 29
	spec.normalize()
	id := spec.ID()
	ref, err := SearchFrom(spec.Config, spec.NewEvaluator(), nil, nil)
	if err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	svc := NewService(dir)
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()
	busy := func(b bool) { // while set, Submit queues and starts no runner
		svc.mu.Lock()
		svc.running = b
		svc.mu.Unlock()
	}
	busy(true)
	if _, err := svc.Submit(spec); err != nil {
		t.Fatal(err)
	}
	svc.mu.Lock()
	eval := svc.jobs[id].eval
	svc.mu.Unlock()
	eval.mu.Lock()
	busy(false)
	queued := spec
	queued.Seed++
	if _, err := svc.Submit(queued); err != nil { // starts the runner, which starts the first job
		t.Fatal(err)
	}
	for st, _ := svc.Status(id); st.State != "running"; st, _ = svc.Status(id) {
		time.Sleep(time.Millisecond)
	}
	go func() {
		for !svc.closed.Load() {
			time.Sleep(time.Millisecond)
		}
		eval.mu.Unlock()
	}()
	svc.Close()
	st, _ := svc.Status(id)
	if st.State != "failed" || !strings.Contains(st.Error, errClosed.Error()) || st.IterationsDone == spec.Iterations {
		t.Fatalf("job closed mid-search: %+v, want failed by the close before its last iteration", st)
	}
	if st, _ := svc.Status(queued.ID()); st.State != "queued" {
		t.Fatalf("job queued behind it: %+v, want still queued", st)
	}
	ck, err := os.ReadFile(svc.CheckpointPath(id))
	if err != nil {
		t.Fatal(err)
	}
	time.Sleep(50 * time.Millisecond)
	if again, err := os.ReadFile(svc.CheckpointPath(id)); err != nil || !bytes.Equal(again, ck) {
		t.Fatalf("the checkpoint changed after Close returned (err %v)", err)
	}
	if _, err := svc.Submit(spec); !errors.Is(err, errClosed) {
		t.Fatalf("Submit after Close: %v, want %v", err, errClosed)
	}
	body, _ := json.Marshal(spec)
	resp, err := http.Post(ts.URL+"/search/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("POST /search/jobs after Close: %d, want 503", resp.StatusCode)
	}

	next := NewService(dir)
	t.Cleanup(next.Close)
	if st, err = next.Submit(spec); err != nil || !st.Resumed {
		t.Fatalf("resubmitted after Close: %+v, %v; want it resumed", st, err)
	}
	next.Wait(id)
	res, ok := next.Result(id)
	same := func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }
	if !ok || !slices.EqualFunc(res.History, ref.History, same) || !same(res.Best.Fit, ref.Best.Fit) || res.Best.Net.String() != ref.Best.Net.String() {
		t.Fatalf("resumed job's history %v and best %v, uninterrupted %v and %v", res.History, res.Best.Net, ref.History, ref.Best.Net)
	}
}

// TestServiceFinishedJobKeepsOnlyItsResult: once a job has run, its record
// lets go of its evaluator — the datasets, the accuracy cache — and of the
// checkpoint it resumed from, done or failed. Status, Result and GET /metrics
// still answer what the evaluator measured: the history, best, operating
// point and cache counts of the same search run alone, bit for bit.
func TestServiceFinishedJobKeepsOnlyItsResult(t *testing.T) {
	spec := testJobSpec()
	spec.Groups, spec.PerGroup, spec.Iterations = 1, 2, 3
	spec.W, spec.H, spec.TrainN, spec.ValN = 4, 4, 2, 1
	spec.Seed = 47
	spec.normalize()
	id, eval := spec.ID(), spec.NewEvaluator()
	ref, err := SearchFrom(spec.Config, eval, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	hits, misses := eval.CacheStats()
	same := func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }
	kept := func(svc *Service, id string) {
		t.Helper()
		svc.mu.Lock()
		jb := svc.jobs[id]
		svc.mu.Unlock()
		jb.mu.Lock()
		defer jb.mu.Unlock()
		if jb.eval != nil || jb.ck != nil {
			t.Fatalf("job %s, %s: its record keeps its evaluator (%v) or checkpoint (%v)", id, jb.status.State, jb.eval != nil, jb.ck != nil)
		}
	}

	// A checkpoint after the first iteration, which the job resumes from.
	dir := t.TempDir()
	resumed := NewService(dir)
	t.Cleanup(resumed.Close)
	stop := errors.New("stop")
	if _, err := SearchFrom(spec.Config, spec.NewEvaluator(), nil, func(ck Checkpoint) error {
		if err := ck.Save(resumed.CheckpointPath(id)); err != nil {
			return err
		}
		return stop
	}); !errors.Is(err, stop) {
		t.Fatal(err)
	}
	if st, err := resumed.Submit(spec); err != nil || !st.Resumed {
		t.Fatalf("submitted over a checkpoint: %+v, %v; want it resumed", st, err)
	}
	resumed.Wait(id)
	kept(resumed, id)
	if res, ok := resumed.Result(id); !ok || !slices.EqualFunc(res.History, ref.History, same) {
		t.Fatalf("resumed job's result %+v, want the history %v", res, ref.History)
	}

	svc := NewService(t.TempDir())
	t.Cleanup(svc.Close)
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()
	if _, err := svc.Submit(spec); err != nil {
		t.Fatal(err)
	}
	svc.Wait(id)
	kept(svc, id)
	st, _ := svc.Status(id)
	want := JobStatus{ID: id, State: "done", IterationsDone: spec.Iterations, IterationsTotal: spec.Iterations, BestFit: ref.Best.Fit, CacheHits: hits, CacheMisses: misses}
	if st != want || !same(st.BestFit, want.BestFit) {
		t.Fatalf("status %+v, want %+v", st, want)
	}
	res, ok := svc.Result(id)
	op := eval.priceOf(ref.Best.Net).Report.WithAccuracy(ref.Best.QuantAcc)
	if !ok || !slices.EqualFunc(res.History, ref.History, same) || !same(res.Best.Fit, ref.Best.Fit) || res.Best.Net.String() != ref.Best.Net.String() ||
		res.Factors != eval.Factors || !reflect.DeepEqual(res.Op, op) || res.CacheHits != hits || res.CacheMisses != misses {
		t.Fatalf("result %+v, want the history %v, best %v, factors %+v, operating point %+v and cache counts %d/%d of the search run alone",
			res, ref.History, ref.Best, eval.Factors, op, hits, misses)
	}
	var m ServiceMetrics
	getJSON(t, ts.URL+"/metrics", &m)
	if !reflect.DeepEqual(m.Jobs, map[string]int{"done": 1}) || m.CacheHits != hits || m.CacheMisses != misses {
		t.Fatalf("/metrics %+v, want one job done and cache counts %d/%d", m, hits, misses)
	}

	// A job that fails — its checkpoint directory is not there — lets go too.
	failing := NewService(filepath.Join(t.TempDir(), "missing"))
	t.Cleanup(failing.Close)
	if _, err := failing.Submit(spec); err != nil {
		t.Fatal(err)
	}
	failing.Wait(id)
	if st, _ := failing.Status(id); st.State != "failed" {
		t.Fatalf("job without its checkpoint directory: %+v, want failed", st)
	}
	kept(failing, id)
}

// TestServiceSurvivesPanickingEvaluator: a job whose evaluator panics on some
// candidate ends failed, naming the particle and the panic; a job submitted
// beside it finishes, and the process lives on to tell.
func TestServiceSurvivesPanickingEvaluator(t *testing.T) {
	if testing.Short() {
		t.Skip("real-engine search service in -short mode")
	}
	svc := NewService(t.TempDir())
	bad := testJobSpec()
	bad.Seed = 29
	bad.normalize()
	jb := &job{spec: bad, eval: bad.NewEvaluator()}
	jb.eval.Bundles = []int{0} // group 1's genomes index past the mapping
	jb.status = JobStatus{ID: bad.ID(), State: "queued", IterationsTotal: bad.Iterations}
	svc.mu.Lock()
	svc.jobs[jb.status.ID] = jb
	svc.mu.Unlock()
	go svc.run(jb, jb.eval, nil)

	good := testJobSpec()
	good.Seed = 31
	st, err := svc.Submit(good)
	if err != nil {
		t.Fatal(err)
	}
	svc.Wait(jb.status.ID)
	svc.Wait(st.ID)
	if st, _ := svc.Status(jb.status.ID); st.State != "failed" || !strings.Contains(st.Error, "particle 0 of group 1: panic: ") {
		t.Fatalf("job with a panicking evaluator: %+v, want failed naming particle 0 of group 1", st)
	}
	if st, _ := svc.Status(st.ID); st.State != "done" {
		t.Fatalf("job beside it: %+v, want done", st)
	}
}

// poolFaultEval is the engine evaluator with a defect only a GEMM pool worker
// meets: evaluating a particle of group 1 first runs a depth-wise convolution
// whose weights lack the last channel's taps, its eight planes dealt four
// ways, so the read past the weights is in a chunk the pool runs.
type poolFaultEval struct{ *EngineEvaluator }

func (e poolFaultEval) Accuracy(n Network, epochs int) float64 {
	if n.BundleType == 1 {
		dw := nn.NewDWConv3(rand.New(rand.NewSource(1)), 8, 3, false)
		dw.Weight.W.Data = dw.Weight.W.Data[: 7*9 : 7*9]
		dw.Forward([]*tensor.Tensor{tensor.New(1, 8, 6, 6)}, false)
	}
	return e.EngineEvaluator.Accuracy(n, epochs)
}

// TestServiceSurvivesAPanicOnAPoolWorker: a candidate whose forward panics on
// a GEMM pool worker, not on the goroutine evaluating it, fails its job like
// any panicking evaluation — naming the particle — and a job beside it ends
// done. The pool used to let the panic kill the process with every job in it.
func TestServiceSurvivesAPanicOnAPoolWorker(t *testing.T) {
	if testing.Short() {
		t.Skip("real-engine search service in -short mode")
	}
	defer func(old int) { tensor.MaxParallelism = old }(tensor.MaxParallelism)
	tensor.MaxParallelism = 4
	svc := NewService(t.TempDir())
	bad := testJobSpec()
	bad.Seed = 37
	bad.normalize()
	jb := &job{spec: bad, eval: bad.NewEvaluator()}
	jb.status = JobStatus{ID: bad.ID(), State: "queued", IterationsTotal: bad.Iterations}
	svc.mu.Lock()
	svc.jobs[jb.status.ID] = jb
	svc.mu.Unlock()
	go svc.run(jb, poolFaultEval{jb.eval}, nil)

	good := testJobSpec()
	good.Seed = 41
	st, err := svc.Submit(good)
	if err != nil {
		t.Fatal(err)
	}
	svc.Wait(jb.status.ID)
	svc.Wait(st.ID)
	if st, _ := svc.Status(jb.status.ID); st.State != "failed" || !strings.Contains(st.Error, "particle 0 of group 1: panic: runtime error: slice bounds out of range") {
		t.Fatalf("job whose forward panics on a pool worker: %+v, want failed naming particle 0 of group 1", st)
	}
	if st, _ := svc.Status(st.ID); st.State != "done" {
		t.Fatalf("job beside it: %+v, want done", st)
	}
}
