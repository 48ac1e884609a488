//go:build amd64 && !purego

package cpufeat

// cpuid executes the CPUID instruction with the given leaf/subleaf.
// Implemented in cpufeat_amd64.s.
func cpuid(leaf, subleaf uint32) (eax, ebx, ecx, edx uint32)

// xgetbv reads extended control register 0 (XCR0), which reports which
// register states the OS saves on context switch. Only valid when CPUID
// leaf 1 sets the OSXSAVE bit. Implemented in cpufeat_amd64.s.
func xgetbv() (eax, edx uint32)

// CPUID leaf 1 ECX and leaf 7 EBX/ECX feature bits consulted by detect.
const (
	leaf1OSXSAVE    = 1 << 27 // ECX: OS has enabled XGETBV
	leaf1AVX        = 1 << 28 // ECX: AVX (YMM registers)
	leaf7AVX2       = 1 << 5  // EBX: AVX2 (256-bit integer ops)
	leaf7AVX512F    = 1 << 16 // EBX: AVX-512 foundation (ZMM registers)
	leaf7AVX512BW   = 1 << 30 // EBX: AVX-512 byte and word instructions
	leaf7AVX512VNNI = 1 << 11 // ECX: AVX-512 VNNI (VPDPWSSD and kin)

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
// The AVX-512 extensions sit behind the same XCR0 opmask/ZMM check as
// AVX512F, and each is reported only with the features it extends.
func detect() (avx2, avx512, avx512BW, avx512VNNI bool) {
	maxLeaf, _, _, _ := cpuid(0, 0)
	if maxLeaf < 7 {
		return
	}
	_, _, c1, _ := cpuid(1, 0)
	if c1&leaf1OSXSAVE == 0 || c1&leaf1AVX == 0 {
		return
	}
	xcr0, _ := xgetbv()
	if xcr0&xcr0YMM != xcr0YMM {
		return
	}
	_, b7, c7, _ := cpuid(7, 0)
	avx2 = b7&leaf7AVX2 != 0
	avx512 = avx2 && b7&leaf7AVX512F != 0 && xcr0&xcr0ZMM == xcr0ZMM
	avx512BW = avx512 && b7&leaf7AVX512BW != 0
	avx512VNNI = avx512BW && c7&leaf7AVX512VNNI != 0
	return
}
