//go:build !amd64 || purego

package cpufeat

// detect reports no vector features: either the architecture has no
// detector wired up yet, or the build carries the `purego` tag, which
// deliberately forces the portable kernels everywhere.
func detect() (avx2, avx512, avx512BW, avx512VNNI bool) {
	return false, false, false, false
}
