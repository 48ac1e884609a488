//go:build !amd64 || purego

package cpufeat

// detect reports no vector features: either the architecture has no
// detector wired up yet, or the build carries the `purego` tag, which
// deliberately forces the portable kernels everywhere.
func detect() (avx2, avx512 bool) {
	return false, false
}
