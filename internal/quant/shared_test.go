package quant

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"sync"
	"testing"

	"skynet/internal/backbone"
	"skynet/internal/dataset"
	"skynet/internal/nn"
	"skynet/internal/tensor"
	"skynet/internal/track"
)

// fingerprint hashes everything v reaches: every field, exported or not,
// every element, and the address and length of every pointer and slice,
// following each pointer once. Two fingerprints of one value differ if
// anything it reaches was written or replaced in between.
func fingerprint(t *testing.T, v any) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	word := func(u uint64) {
		binary.LittleEndian.PutUint64(buf[:], u)
		h.Write(buf[:])
	}
	seen := map[uintptr]bool{}
	var walk func(r reflect.Value)
	walk = func(r reflect.Value) {
		switch r.Kind() {
		case reflect.Pointer:
			word(uint64(r.Pointer()))
			if !r.IsNil() && !seen[r.Pointer()] {
				seen[r.Pointer()] = true
				walk(r.Elem())
			}
		case reflect.Interface:
			if !r.IsNil() {
				h.Write([]byte(r.Elem().Type().String()))
				walk(r.Elem())
			}
		case reflect.Struct:
			for i := 0; i < r.NumField(); i++ {
				walk(r.Field(i))
			}
		case reflect.Slice:
			word(uint64(r.Pointer()))
			word(uint64(r.Len()))
			fallthrough
		case reflect.Array:
			for i := 0; i < r.Len(); i++ {
				walk(r.Index(i))
			}
		case reflect.Float32, reflect.Float64:
			word(math.Float64bits(r.Float()))
		case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
			word(uint64(r.Int()))
		case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr:
			word(r.Uint())
		case reflect.Bool:
			word(map[bool]uint64{false: 0, true: 1}[r.Bool()])
		case reflect.String:
			h.Write([]byte(r.String()))
		case reflect.Func, reflect.Chan, reflect.Map:
			word(uint64(r.Pointer()))
		default:
			t.Fatalf("fingerprint: a %v field", r.Kind())
		}
	}
	walk(reflect.ValueOf(v))
	return h.Sum64()
}

// layers returns g's layers, for fingerprint.
func layers(g *nn.Graph) []nn.Layer {
	var ls []nn.Layer
	for _, n := range g.Nodes {
		ls = append(ls, n.Layer)
	}
	return ls
}

// TestInferenceLeavesModelUntouched: an inference forward writes nothing into
// the model it runs — not the graph's layers on a float forward, not the
// layers, units or grids of an int8 model, with float fallback units or
// without —, which is what lets several forwards share one model. SkyNet A, B
// and C at width 0.25 on 48×96 frames, at batch 1 and 3, each model
// fingerprinted before its first forward. Nor does a tracking step write the
// tracker: its config, backbone and layers are what they were before the
// first ExemplarFeaturesFor, StepBoxE and StepE with a mask.
func TestInferenceLeavesModelUntouched(t *testing.T) {
	for vi, v := range []backbone.SkyNetVariant{backbone.VariantA, backbone.VariantB, backbone.VariantC} {
		rng := rand.New(rand.NewSource(int64(60 + vi)))
		g := backbone.SkyNet(rng, backbone.Config{Width: 0.25, InC: 3, HeadChannels: 10, ReLU6: true}, v)
		settle(g, rng)
		ls := layers(g)
		// By model: its forward, and the fingerprint of what it reads.
		models := map[string]func(*tensor.Tensor, bool) *tensor.Tensor{"float": g.Forward}
		prints := map[string]func() uint64{"float": func() uint64 { return fingerprint(t, ls) }}
		calib := []*tensor.Tensor{randBatch(rng, 2, 3, 48, 96)}
		for name, cfg := range map[string]ExportConfig{"int8": {}, "int8/forced": {ForceFloat: []int{0, 1, 2, 9}}} {
			qm, err := Export(g, calib, cfg)
			if err != nil {
				t.Fatal(err)
			}
			model := []any{ls, qm.units, qm.vals}
			models[name], prints[name] = qm.Forward, func() uint64 { return fingerprint(t, model) }
		}
		before := map[string]uint64{}
		for name, print := range prints {
			before[name] = print()
		}
		for _, b := range []int{1, 3} {
			x := randBatch(rng, b, 3, 48, 96)
			for name, forward := range models {
				forward(x, false)
				for other, print := range prints { // the models share the graph's layers
					if now := print(); now != before[other] {
						t.Errorf("SkyNet%s, batch %d: a %s forward wrote into the %s model", v, b, name, other)
						before[other] = now
					}
				}
			}
		}
	}

	rng := rand.New(rand.NewSource(63))
	cfg := track.DefaultConfig()
	cfg.WithMask = true
	tr := track.New(backbone.SkyNetA(rng, backbone.Config{Width: 0.125, InC: 3, HeadChannels: 0, ReLU6: true}), 64, cfg)
	dcfg := dataset.DefaultConfig()
	dcfg.W, dcfg.H, dcfg.Clutter = 96, 96, 1
	seq := dataset.NewGenerator(dcfg).Sequence(dataset.SequenceConfig{Length: 3})
	tracker := []any{tr.Cfg, tr.Backbone, tr.Adjust, tr.Cls, tr.Reg, tr.Mask}
	before := fingerprint(t, tracker)
	zf, err := tr.ExemplarFeaturesFor(seq.Frames[0], seq.Boxes[0])
	if err != nil {
		t.Fatal(err)
	}
	box, err := tr.StepBoxE(zf, seq.Frames[1], seq.Boxes[0])
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := tr.StepE(zf, seq.Frames[2], box, true); err != nil {
		t.Fatal(err)
	}
	if fingerprint(t, tracker) != before {
		t.Error("a tracking step wrote into the tracker")
	}
}

// TestConcurrentForwardsOnOneModel: four goroutines run forwards side by
// side on one float graph, on one int8 model of it and on an int8 model with
// float fallback units — whose layers' own Forward writes them —, frames
// alternating between 48×96 and 64×128 at batch 1 and 3. Every output is bit
// for bit what the same model gives the same frames one forward at a time.
func TestConcurrentForwardsOnOneModel(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	g := backbone.SkyNetC(rng, backbone.Config{Width: 0.25, InC: 3, HeadChannels: 10, ReLU6: true})
	settle(g, rng)
	calib := []*tensor.Tensor{randBatch(rng, 2, 3, 48, 96)}
	qm, err := Export(g, calib, ExportConfig{})
	if err != nil {
		t.Fatal(err)
	}
	forced, err := Export(g, calib, ExportConfig{ForceFloat: []int{0, 1, 2, 9}})
	if err != nil {
		t.Fatal(err)
	}
	if _, fl, _ := forced.Stats(); fl == 0 {
		t.Fatal("the forced export has no float fallback unit")
	}
	models := []struct {
		name    string
		forward func(*tensor.Tensor, bool) *tensor.Tensor
	}{{"float", g.Forward}, {"int8", qm.Forward}, {"int8/forced", forced.Forward}}
	xs := []*tensor.Tensor{randBatch(rng, 1, 3, 48, 96), randBatch(rng, 3, 3, 64, 128), randBatch(rng, 3, 3, 48, 96), randBatch(rng, 1, 3, 64, 128)}
	want := make([][][]float32, len(models))
	for mi, m := range models {
		for _, x := range xs {
			want[mi] = append(want[mi], slices.Clone(m.forward(x, false).Data))
		}
	}
	const goroutines, rounds = 4, 2
	var wg sync.WaitGroup
	errs := make(chan error, goroutines*rounds*len(models)*len(xs))
	for k := 0; k < goroutines; k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				for mi, m := range models {
					for i := range xs {
						j := (i + k) % len(xs) // the goroutines start at different shapes
						if got := m.forward(xs[j], false).Data; !sameBits(got, want[mi][j]) {
							errs <- fmt.Errorf("%s, goroutine %d, input %v: differs from the serial forward", m.name, k, xs[j].Shape())
						}
					}
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestFallbackUnitsRunOnLanes: a model with float fallback units runs a batch
// as the all-int8 model does — dealt to nn.LanesFor(n) lanes, each fallback
// step the float plan's own on the lane's buffers — so its forward is bit for
// bit the one-worker forward and a warm one allocates no more than the
// all-int8 model's. SkyNet C at width 0.25, a batch of 3 on three workers and
// on as many as the process has.
func TestFallbackUnitsRunOnLanes(t *testing.T) {
	rng := rand.New(rand.NewSource(54))
	g := backbone.SkyNetC(rng, backbone.Config{Width: 0.25, InC: 3, HeadChannels: 10, ReLU6: true})
	settle(g, rng)
	calib := []*tensor.Tensor{randBatch(rng, 2, 3, 48, 96)}
	plain, err := Export(g, calib, ExportConfig{})
	if err != nil {
		t.Fatal(err)
	}
	forced, err := Export(g, calib, ExportConfig{ForceFloat: []int{0, 1, 2, 9}})
	if err != nil {
		t.Fatal(err)
	}
	x := randBatch(rng, 3, 3, 48, 96)
	var want []float32
	workers(1, func() { want = forwardCopy(forced, x) })
	for _, w := range []int{3, 0} {
		workers(w, func() {
			if got := forwardCopy(forced, x); !sameBits(got, want) {
				t.Fatalf("%d workers: the forward differs from the one-worker forward", w)
			}
			if lanes := len(forced.last().lanes); w == 3 && lanes != 3 {
				t.Fatalf("a batch of 3 on three workers ran on %d lanes, want 3", lanes)
			}
			plain.Forward(x, false)
			n, most := testing.AllocsPerRun(10, func() { forced.Forward(x, false) }), testing.AllocsPerRun(10, func() { plain.Forward(x, false) })
			if n > most {
				t.Fatalf("%d workers: a warm forward allocates %v times with fallback units, %v without", w, n, most)
			}
		})
	}
}
