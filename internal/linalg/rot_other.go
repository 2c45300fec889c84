//go:build !amd64

package linalg

// useAVX2 is never set off amd64: rotate runs rotGo and applyChain4
// chain4Go.
var useAVX2 = false

func rotAVX2(x, y []float64, c, s float64) {
	panic("linalg: the AVX2 rotation kernel exists only on amd64")
}

func chain4AVX2(rows []float64, k, p int, steps []step) bool {
	panic("linalg: the AVX2 chain kernel exists only on amd64")
}
