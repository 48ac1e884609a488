package cpufeat

import (
	"runtime"
	"testing"
)

// TestDetectStable pins the basic contract: detection ran at init, is
// idempotent, and each feature is reported only with the ones it extends —
// AVX512VNNI ⇒ AVX512BW ⇒ AVX512 ⇒ AVX2 — since the kernels that use the
// wider registers share the narrower ones' routines.
func TestDetectStable(t *testing.T) {
	got := [4]bool{}
	got[0], got[1], got[2], got[3] = detect()
	if want := [4]bool{AVX2, AVX512, AVX512BW, AVX512VNNI}; got != want {
		t.Fatalf("detect() = %v, init recorded %v", got, want)
	}
	for i, name := range []string{"AVX512", "AVX512BW", "AVX512VNNI"} {
		if got[i+1] && !got[i] {
			t.Fatalf("%s reported without the feature it extends: %v", name, got)
		}
	}
	// Run it a few more times: CPUID is a pure function of the hardware.
	for i := 0; i < 3; i++ {
		again := [4]bool{}
		again[0], again[1], again[2], again[3] = detect()
		if again != got {
			t.Fatalf("detect() not idempotent: run %d gave %v, want %v", i, again, got)
		}
	}
	t.Logf("GOARCH=%s AVX2=%v AVX512=%v AVX512BW=%v AVX512VNNI=%v", runtime.GOARCH, AVX2, AVX512, AVX512BW, AVX512VNNI)
}
