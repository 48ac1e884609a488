// Command skynet-track trains and evaluates a Siamese tracker (§7) with a
// selectable backbone on synthetic GOT-10k-style sequences, reporting the
// benchmark's AO / SR@0.50 / SR@0.75 metrics and the tracking speed, and
// optionally rendering tracked frames.
//
// With -serve the trained tracker is exposed as a stateful HTTP service:
// POST /track/start fixes a template and returns a session ID, POST
// /track/step advances one frame, POST /track/stop releases the session,
// and GET /metrics reports the session table (live count, TTL evictions,
// bytes/session) alongside latency quantiles.
//
// Usage:
//
//	skynet-track -backbone skynet -steps 900
//	skynet-track -backbone resnet50 -mask       # SiamMask-style variant
//	skynet-track -serve :8081 -ttl 2m -max-sessions 4096
package main

import (
	"bufio"
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"os"
	"os/signal"
	"syscall"
	"time"

	"skynet/internal/backbone"
	"skynet/internal/dataset"
	"skynet/internal/serve"
	"skynet/internal/track"
)

func main() {
	switch err := run(os.Args[1:], os.Stdout); {
	case errors.Is(err, flag.ErrHelp):
	case err != nil:
		fmt.Fprintf(os.Stderr, "skynet-track: %v\n", err)
		os.Exit(1)
	}
}

// run trains and evaluates the tracker the flags name, writing its report to
// stdout, and with -serve serves it until SIGTERM.
func run(args []string, stdout io.Writer) error {
	w := bufio.NewWriter(stdout)
	fs := flag.NewFlagSet("skynet-track", flag.ContinueOnError)
	var (
		bb     = fs.String("backbone", "skynet", "backbone: skynet, resnet50, alexnet")
		mask   = fs.Bool("mask", false, "train the SiamMask-style variant (mask head)")
		steps  = fs.Int("steps", 900, "training steps")
		lr     = fs.Float64("lr", 0.01, "learning rate")
		nTrain = fs.Int("train", 6, "training sequences")
		nEval  = fs.Int("eval", 3, "evaluation sequences")
		length = fs.Int("length", 12, "frames per sequence")
		seed   = fs.Int64("seed", 1, "random seed")
		render = fs.Bool("render", false, "ASCII-render tracked frames of the first eval sequence")

		addr     = fs.String("serve", "", "after training, serve the tracker on this HTTP address")
		ttl      = fs.Duration("ttl", 5*time.Minute, "idle session time-to-live for -serve")
		maxSess  = fs.Int("max-sessions", 1024, "session table bound for -serve")
		drainDur = fs.Duration("drain", 10*time.Second, "graceful drain budget on SIGTERM for -serve")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	switch {
	case *nTrain < 1:
		return fmt.Errorf("-train %d: need at least one training sequence", *nTrain)
	case *nEval < 1:
		return fmt.Errorf("-eval %d: need at least one evaluation sequence", *nEval)
	case *length < 2:
		return fmt.Errorf("-length %d: a sequence needs a template frame and one to track", *length)
	case *render && *length < 3:
		return fmt.Errorf("-length %d: -render shows every third frame and needs at least 3", *length)
	}

	cfg := dataset.DefaultConfig()
	cfg.W, cfg.H = 96, 96
	cfg.Seed = *seed
	gen := dataset.NewGenerator(cfg)
	sc := dataset.DefaultSequenceConfig()
	sc.Length = *length
	trainSeqs := gen.Sequences(*nTrain, sc)
	evalSeqs := gen.Sequences(*nEval, sc)

	bcfg := backbone.Config{Width: 0.125, InC: 3, HeadChannels: 0, MaxStride: 8, ReLU6: true}
	tcfg := track.DefaultConfig()
	tcfg.WithMask = *mask
	tcfg.Seed = *seed
	rng := rand.New(rand.NewSource(*seed))
	var tr *track.Tracker
	switch *bb {
	case "skynet":
		tr = track.New(backbone.SkyNetA(rng, bcfg), bcfg.ScaledChannels(512), tcfg)
	case "resnet50":
		tr = track.New(backbone.ResNet50(rng, bcfg), 4*bcfg.ScaledChannels(512), tcfg)
	case "alexnet":
		tr = track.New(backbone.AlexNetFeatures(rng, bcfg), bcfg.ScaledChannels(256), tcfg)
	default:
		return fmt.Errorf("-backbone %q: unknown backbone", *bb)
	}

	fmt.Fprintf(w, "training %s tracker (%d steps, mask=%v)...\n", *bb, *steps, *mask)
	if _, err := tr.Train(trainSeqs, track.TrainConfig{
		Steps: *steps, LR: float32(*lr), Seed: *seed,
		Progress: func(step int, loss float64) {
			fmt.Fprintf(w, "  step %4d  loss %.4f\n", step, loss)
			_ = w.Flush() // a failed write sticks, and the last Flush reports it
		},
	}); err != nil {
		return err
	}
	res, err := tr.Evaluate(evalSeqs)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "\nAO %.3f  SR@0.50 %.3f  SR@0.75 %.3f  (%d frames, %.1f FPS on this machine)\n",
		res.AO, res.SR50, res.SR75, res.Frames, res.FPS)

	if *render {
		seq := evalSeqs[0]
		box := seq.Boxes[0]
		zf, err := tr.ExemplarFeaturesFor(seq.Frames[0], box)
		if err != nil {
			return err
		}
		for f := 1; f < seq.Len(); f += seq.Len() / 3 {
			for g := f - seq.Len()/3 + 1; g <= f; g++ {
				if g < 1 {
					continue
				}
				if box, err = tr.StepBoxE(zf, seq.Frames[g], box); err != nil {
					return err
				}
			}
			fmt.Fprintf(w, "\nframe %d (IoU %.3f):\n%s", f, box.IoU(seq.Boxes[f]),
				dataset.ASCIIRender(seq.Frames[f], seq.Boxes[f], box, 56))
		}
	}

	if *addr != "" {
		ts, err := serve.NewTrackService(tr, serve.TrackConfig{
			MaxSessions: *maxSess,
			TTL:         *ttl,
		})
		if err != nil {
			return err
		}
		ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
		defer stop()
		fmt.Fprintf(w, "skynet-track: tracking service on %s (sessions<=%d, ttl %s)\n",
			*addr, *maxSess, *ttl)
		if err := w.Flush(); err != nil {
			return err
		}
		if err := ts.ListenAndServe(ctx, *addr, *drainDur); err != nil {
			return err
		}
		m := ts.Metrics()
		fmt.Fprintf(w, "skynet-track: drained — %d sessions started, %d frames stepped, %d evicted\n",
			m.Started, m.Steps, m.Evicted)
	}
	return w.Flush()
}
