// Package cpufeat detects the CPU vector-instruction features the SIMD
// micro-kernels in internal/tensor dispatch on. Detection runs once at
// package initialization; the results are plain booleans so the hot paths
// pay nothing to consult them.
//
// The package is the single seam between portable Go and machine-specific
// code: on amd64 it executes CPUID/XGETBV (cpufeat_amd64.s) and reports
// what the hardware and the operating system together support; everywhere
// else — and on any build with the `purego` tag — every feature reads
// false, which forces the pure-Go fallback kernels. Building and testing
// with `-tags purego` on an AVX2 host is therefore the supported way to
// exercise the portable path on developer machines and in CI.
package cpufeat

var (
	// AVX2 reports whether 256-bit integer and float vector instructions
	// (AVX2) are available and the OS preserves YMM state across context
	// switches (OSXSAVE + XCR0 check, not just the CPUID feature bit).
	AVX2 bool

	// AVX512 reports whether the AVX-512 foundation instructions (AVX512F)
	// are available and the OS preserves the opmask and ZMM state as well.
	// It implies AVX2.
	AVX512 bool

	// AVX512BW reports the AVX-512 byte and word instructions, AVX512VNNI
	// the ZMM dot product VPDPWSSD; VNNI implies BW, which implies AVX512.
	AVX512BW, AVX512VNNI bool
)

func init() {
	AVX2, AVX512, AVX512BW, AVX512VNNI = detect()
}
