package cpufeat

import (
	"runtime"
	"testing"
)

// TestDetectStable pins the basic contract: detection ran at init, is
// idempotent, and AVX512 is never reported without AVX2 (the kernels that
// use ZMM registers share the YMM ones' row routines).
func TestDetectStable(t *testing.T) {
	a2, a512 := detect()
	if a2 != AVX2 || a512 != AVX512 {
		t.Fatalf("detect() = (%v, %v), init recorded (%v, %v)", a2, a512, AVX2, AVX512)
	}
	if a512 && !a2 {
		t.Fatal("AVX512 reported without AVX2")
	}
	// Run it a few more times: CPUID is a pure function of the hardware.
	for i := 0; i < 3; i++ {
		b2, b512 := detect()
		if b2 != a2 || b512 != a512 {
			t.Fatalf("detect() not idempotent: run %d gave (%v, %v), want (%v, %v)", i, b2, b512, a2, a512)
		}
	}
	t.Logf("GOARCH=%s AVX2=%v AVX512=%v", runtime.GOARCH, AVX2, AVX512)
}
