//go:build !amd64 || purego

package tensor

// nativeKernels reports no assembly kernels: this architecture has none
// wired up, or the build carries the `purego` tag. Dispatch falls back to
// the portable reference kernels on every path.
func nativeKernels() (avx512, avx2 gemmMicroFunc, i8AVX2, i8VNNI i8MicroFunc, tile512 gemmTileFunc) {
	return nil, nil, nil, nil, nil
}

// nativeRowKernels reports no row kernels, for the same reason: every row
// loop runs as Go.
func nativeRowKernels() rowKernels { return rowKernels{} }
