package tensor

// Kernel dispatch. Everything in this package, internal/nn and internal/quant
// that has an assembly implementation reaches it through three variables —
// gemmMicro for float32 GEMM tiles, i8Micro for int8 tiles, and rows, the
// table of row kernels (rows.go) — so the packing, blocking, worker pool,
// epilogue and layer code never know which instruction set computes a tile
// or a row. On amd64 hosts with AVX2 the variables hold Go-assembly routines
// (gemm_avx2_amd64.s, rows_avx2_amd64.s); everywhere else, and on builds with
// the `purego` tag, the micro-kernel variables hold the portable Go kernels
// and the row table is empty, which leaves every row to its Go loop — the
// implementations that double as the test oracle.
//
// The float32 kernels deliberately avoid fused multiply-add even when the
// CPU has it: FMA skips the intermediate rounding of a*b, so an FMA tile
// is not bitwise identical to the pure-Go reference, and the repo's
// determinism contract (identical bytes across kernels, reruns, and
// GOMAXPROCS) is worth more than what fusing buys (an opt-in FMA tile was
// measured no faster at 256³ or on the conv shape, and removed). The int8
// kernels accumulate in exact integer arithmetic, so they are bitwise
// identical to the reference by construction.
//
// Selection is per-process: `auto` at startup, overridable with the
// SKYNET_KERNEL environment variable or SetKernel — the one switch for all
// three variables. SetKernel must not be called concurrently with in-flight
// GEMMs or forwards — it is a startup/test seam, not a hot-path switch.

import (
	"fmt"
	"os"
)

// gemmMicroFunc computes one MR×NR float32 tile over packed panels: ap
// holds kc groups of gemmMR A-values, bp holds kc groups of gemmNR
// B-values; the tile is overwritten.
type gemmMicroFunc func(kc int, ap, bp []float32, tile *[gemmMR * gemmNR]float32)

// i8MicroFunc computes one MR×NR int32 tile over pair-packed int8 panels:
// ap holds kp groups of 2·i8MR A-values, bp holds kp groups of 2·i8NR
// B-values (see the packing comments in gemm_int8.go); the tile is
// overwritten.
type i8MicroFunc func(kp int, ap, bp []int8, tile *[i8MR * i8NR]int32)

var (
	gemmMicro      gemmMicroFunc = microKernelRef
	i8Micro        i8MicroFunc   = i8MicroKernelRef
	gemmKernelName               = "purego"
	i8KernelName                 = "purego"
)

func init() {
	if name := os.Getenv("SKYNET_KERNEL"); name != "" {
		if err := SetKernel(name); err != nil {
			fmt.Fprintf(os.Stderr, "tensor: SKYNET_KERNEL: %v; falling back to auto\n", err)
			_ = SetKernel("auto")
		}
		return
	}
	_ = SetKernel("auto")
}

// SetKernel selects the implementation of the micro-kernels and the row
// kernels by name:
//
//	auto     best available bitwise-deterministic kernels (default)
//	purego   portable Go kernels and row loops on every path
//	avx2     AVX2 assembly, no FMA (bitwise identical to purego)
//
// It returns an error (and changes nothing) if the named kernel is not
// available on this CPU or build. Not safe to call concurrently with
// running GEMMs.
func SetKernel(name string) error {
	asmF32, asmI8 := nativeKernels()
	switch name {
	case "", "auto":
		if asmF32 != nil {
			gemmMicro, gemmKernelName = asmF32, "avx2"
		} else {
			gemmMicro, gemmKernelName = microKernelRef, "purego"
		}
	case "purego":
		gemmMicro, gemmKernelName = microKernelRef, "purego"
		i8Micro, i8KernelName = i8MicroKernelRef, "purego"
		rows = rowKernels{}
		gemmMinBlockedK = gemmMinBlockedKPure
		return nil
	case "avx2":
		if asmF32 == nil {
			return fmt.Errorf("kernel %q not available (no AVX2 on this CPU or purego build)", name)
		}
		gemmMicro, gemmKernelName = asmF32, "avx2"
	default:
		return fmt.Errorf("unknown kernel %q (want auto, purego or avx2)", name)
	}
	if asmI8 != nil {
		i8Micro, i8KernelName = asmI8, "avx2"
	} else {
		i8Micro, i8KernelName = i8MicroKernelRef, "purego"
	}
	rows = nativeRowKernels()
	// The blocked-vs-naive crossover moves with the kernel: the asm tile is
	// fast enough that packing pays off at much shallower k (see the
	// gemmMinBlockedK comment in gemm.go).
	if gemmKernelName == "purego" {
		gemmMinBlockedK = gemmMinBlockedKPure
	} else {
		gemmMinBlockedK = gemmMinBlockedKAsm
	}
	return nil
}

// HasKernel reports whether SetKernel(name) would succeed.
func HasKernel(name string) bool {
	switch name {
	case "", "auto", "purego":
		return true
	case "avx2":
		asmF32, _ := nativeKernels()
		return asmF32 != nil
	}
	return false
}

// KernelName reports the float32 micro-kernel currently dispatched
// ("purego" or "avx2").
func KernelName() string { return gemmKernelName }

// Int8KernelName reports the int8 micro-kernel currently dispatched
// ("purego" or "avx2").
func Int8KernelName() string { return i8KernelName }
