// Command skynet-sim maps a model onto the FPGA accelerator model, the
// shared Bundle IP's tile-level schedule calibrated once to the paper's
// operating point, and prints its summary, modeled power and per-layer
// cycle timeline — the §6.4 deployment analysis as a tool.
//
// Usage:
//
//	skynet-sim                          # full-size SkyNet C on Ultra96
//	skynet-sim -ckpt model.ckpt         # a trained checkpoint
//	skynet-sim -device pynq -w 8 -fm 8  # other device / quantization
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"os"
	"strings"

	"skynet/internal/backbone"
	"skynet/internal/fpga"
	"skynet/internal/modelspec"
	"skynet/internal/nn"
)

func main() {
	switch err := run(os.Args[1:], os.Stdout); {
	case errors.Is(err, flag.ErrHelp):
	case err != nil:
		fmt.Fprintf(os.Stderr, "skynet-sim: %v\n", err)
		os.Exit(1)
	}
}

// run prices the model the flags name, writing its estimate and schedule to w.
func run(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("skynet-sim", flag.ContinueOnError)
	var (
		ckpt   = fs.String("ckpt", "", "checkpoint to analyze (default: full-size SkyNet C)")
		device = fs.String("device", "ultra96", "target: ultra96 or pynq")
		wBits  = fs.Int("w", 11, "weight bits")
		fmBits = fs.Int("fm", 9, "feature-map bits")
		imgW   = fs.Int("imgw", 320, "input width")
		imgH   = fs.Int("imgh", 160, "input height")
		batch  = fs.Int("batch", 4, "batch size for weight reuse (Figure 9)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *wBits < 1 || *wBits > 32 {
		return fmt.Errorf("-w %d: weight bits must be in 1..32", *wBits)
	}
	if *fmBits < 1 || *fmBits > 32 {
		return fmt.Errorf("-fm %d: feature-map bits must be in 1..32", *fmBits)
	}

	var dev fpga.Device
	switch *device {
	case "ultra96":
		dev = fpga.Ultra96
	case "pynq":
		dev = fpga.PynqZ1
	default:
		return fmt.Errorf("unknown device %q", *device)
	}

	var sb strings.Builder
	var g *nn.Graph
	inC := 3
	if *ckpt != "" {
		spec, cg, _, err := modelspec.LoadCheckpoint(*ckpt)
		if err != nil {
			return err
		}
		fmt.Fprintf(&sb, "model: %s %s width %.3f (%d parameters)\n",
			spec.Family, spec.Variant, spec.Width, cg.NumParams())
		g, inC = cg, spec.InC
	} else {
		g = backbone.SkyNetC(rand.New(rand.NewSource(0)), backbone.DefaultConfig())
		fmt.Fprintf(&sb, "model: SkyNet C at paper scale (%d parameters)\n", g.NumParams())
	}
	costs, err := nn.CostsOf(g, []int{1, inC, *imgH, *imgW})
	if err != nil {
		return err
	}

	ip := fpga.AutoConfig(dev, *wBits, *fmBits)
	ip.Batch = *batch
	fmt.Fprintf(&sb, "device: %s\nIP: %dx%d multipliers (W%d/FM%d), batch %d\n\n",
		dev, ip.Tm, ip.Tn, ip.WBits, ip.FMBits, ip.Batch)

	rep := fpga.Simulate(costs, dev, ip)
	fmt.Fprintf(&sb, "accelerator: %s\n", rep)
	fmt.Fprintf(&sb, "modeled power: %.2f W\n\n", rep.PowerW())
	fmt.Fprintln(&sb, "tile-level schedule:")
	sb.WriteString(rep.Timeline())
	_, err = io.WriteString(w, sb.String())
	return err
}
