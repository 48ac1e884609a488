//go:build !amd64 || purego

package tensor

// nativeKernels reports no assembly kernels: this architecture has none
// wired up, or the build carries the `purego` tag. Dispatch falls back to
// the portable reference kernels on every path.
func nativeKernels() (f32 gemmMicroFunc, i8 i8MicroFunc) {
	return nil, nil
}

// nativeRowKernels reports no row kernels, for the same reason: every row
// loop runs as Go.
func nativeRowKernels() rowKernels { return rowKernels{} }
