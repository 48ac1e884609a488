package tensor

// Kernel dispatch. Everything in this package, internal/nn and internal/quant
// that has an assembly implementation reaches it through four variables —
// gemmMicro for float32 GEMM tiles, gemmTile for a tile that stores itself,
// i8Micro for int8 tiles, and rows, the table of row kernels (rows.go) — so
// the packing, blocking, worker pool, epilogue and layer code never know
// which instruction set computes a tile or a row.
//
// The float32 GEMM has one packed layout, 4×16 tiles (gemm.go), and three
// kernels over it: the pure-Go reference (microKernelRef), AVX2 (eight YMM
// accumulators, gemm_avx2_amd64.s) and AVX-512F (four ZMM accumulators,
// gemm_avx512_amd64.s). All three compute every element of a tile with a
// separately rounded multiply and add, in strict k order, so they give one
// bit pattern: fused multiply-add would skip the rounding of a*b, and the
// repo's determinism contract (identical bytes across kernels, reruns and
// GOMAXPROCS) is worth more than what fusing buys. The int8 tile is 4×16
// too, with a pure-Go, an AVX2 and an AVX-512 VNNI kernel that sum exactly,
// and the row kernels have a pure-Go and an AVX2 form that keep the Go
// loop's order: bitwise identical as well. The Go forms run on purego
// builds and non-amd64 hosts and are the tests' oracle.
//
// Selection is per-process: `auto` at startup, overridable with the
// SKYNET_KERNEL environment variable or SetKernel — the one switch for all
// four variables. SetKernel must not be called concurrently with in-flight
// GEMMs or forwards — it is a startup/test seam, not a hot-path switch.

import (
	"fmt"
	"os"
)

// gemmMicroFunc computes one MR×NR float32 tile over packed panels: ap
// holds kc groups of gemmMR A-values, bp holds kc groups of gemmNR
// B-values; the tile is overwritten.
type gemmMicroFunc func(kc int, ap, bp []float32, tile *[gemmMR * gemmNR]float32)

// i8MicroFunc computes one MR×NR int32 tile over pair-packed panels: ap
// holds kp groups of 2·i8MR int16 A-values, bp holds kp groups of 2·i8NR
// int8 B-values (see the packing comments in gemm_int8.go); the tile is
// overwritten.
type i8MicroFunc func(kp int, ap []int16, bp []int8, tile *[i8MR * i8NR]int32)

// gemmTileFunc is a gemmMicroFunc that stores its tile itself, as rows.storeTile would.
type gemmTileFunc func(kc int, ap, bp, c *float32, ldc int, bias, gamma, mean, inv, beta *float32, hi float32, mode int)

var (
	gemmMicro      gemmMicroFunc = microKernelRef
	i8Micro        i8MicroFunc   = i8MicroKernelRef
	gemmTile       gemmTileFunc  // gemmMicro with the store, where the kernel has one; nil otherwise
	gemmKernelName = "purego"
	i8KernelName   = "purego"
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
//	auto     the widest kernel this CPU and build have (default)
//	purego   portable Go kernels and row loops on every path
//	avx2     AVX2 assembly, no FMA (bitwise identical to purego)
//	avx512   AVX-512F float tiles, AVX-512 VNNI int8 tiles where the CPU
//	         has VNNI, AVX2 for the rest (bitwise identical too)
//
// It returns an error (and changes nothing) if the name is unknown or the
// named kernel is not available on this CPU or build. Not safe to call
// concurrently with running GEMMs.
func SetKernel(name string) error {
	avx512, avx2, i8AVX2, i8VNNI, tile512 := nativeKernels()
	var micro gemmMicroFunc
	var tile gemmTileFunc
	i8, i8Name := i8AVX2, "avx2"
	switch name {
	case "", "auto":
		for _, widest := range []string{"avx512", "avx2"} {
			if SetKernel(widest) == nil {
				return nil
			}
		}
		return SetKernel("purego")
	case "purego":
		micro, i8, i8Name = microKernelRef, i8MicroKernelRef, "purego"
	case "avx2":
		micro = avx2
	case "avx512":
		micro, tile = avx512, tile512
		if i8VNNI != nil {
			i8, i8Name = i8VNNI, "avx512vnni"
		}
	default:
		return fmt.Errorf("unknown kernel %q (want auto, purego, avx2 or avx512)", name)
	}
	if micro == nil {
		return fmt.Errorf("kernel %q not available on this CPU or build (want auto, purego, avx2 or avx512; avx512 needs AVX-512F, avx2 needs AVX2 and an amd64 build without the purego tag)", name)
	}
	// The blocked-vs-naive crossover moves with the kernel: an asm tile is
	// fast enough that packing pays off at much shallower k (see the
	// gemmMinBlockedK comment in gemm.go).
	gemmMicro, gemmTile, gemmKernelName, i8Micro, i8KernelName = micro, tile, name, i8, i8Name
	rows, gemmMinBlockedK = nativeRowKernels(), gemmMinBlockedKAsm
	if name == "purego" {
		rows, gemmMinBlockedK = rowKernels{}, gemmMinBlockedKPure
	}
	return nil
}

// KernelName reports the float32 micro-kernel currently dispatched
// ("purego", "avx2" or "avx512").
func KernelName() string { return gemmKernelName }

// Int8KernelName reports the int8 micro-kernel currently dispatched
// ("purego", "avx2" or "avx512vnni").
func Int8KernelName() string { return i8KernelName }
