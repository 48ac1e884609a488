//go:build amd64 && !purego

package cpufeat

// cpuid executes the CPUID instruction with the given leaf/subleaf.
// Implemented in cpufeat_amd64.s.
func cpuid(leaf, subleaf uint32) (eax, ebx, ecx, edx uint32)

// xgetbv reads extended control register 0 (XCR0), which reports which
// register states the OS saves on context switch. Only valid when CPUID
// leaf 1 sets the OSXSAVE bit. Implemented in cpufeat_amd64.s.
func xgetbv() (eax, edx uint32)

// CPUID leaf 1 ECX and leaf 7 EBX feature bits consulted by detect.
const (
	leaf1OSXSAVE = 1 << 27 // ECX: OS has enabled XGETBV
	leaf1AVX     = 1 << 28 // ECX: AVX (YMM registers)
	leaf7AVX2    = 1 << 5  // EBX: AVX2 (256-bit integer ops)
	leaf7AVX512F = 1 << 16 // EBX: AVX-512 foundation (ZMM registers)

	// XCR0 bits 1 (SSE/XMM) and 2 (AVX/YMM) must both be set before YMM
	// registers survive a context switch; bits 5–7 (opmask, the upper
	// halves of ZMM0–15, ZMM16–31) as well before ZMM registers do.
	xcr0YMM = 0x6
	xcr0ZMM = 0xE6
)

// detect interrogates the hardware. Each feature requires its CPUID bit and
// OS support for saving its register state: a hypervisor or minimal OS can
// expose the CPU bit while clobbering the registers on every interrupt, so
// checking CPUID alone is not safe.
func detect() (avx2, avx512 bool) {
	maxLeaf, _, _, _ := cpuid(0, 0)
	if maxLeaf < 7 {
		return false, false
	}
	_, _, c1, _ := cpuid(1, 0)
	if c1&leaf1OSXSAVE == 0 || c1&leaf1AVX == 0 {
		return false, false
	}
	xcr0, _ := xgetbv()
	if xcr0&xcr0YMM != xcr0YMM {
		return false, false
	}
	_, b7, _, _ := cpuid(7, 0)
	avx2 = b7&leaf7AVX2 != 0
	return avx2, avx2 && b7&leaf7AVX512F != 0 && xcr0&xcr0ZMM == xcr0ZMM
}
