package linalg

// useAVX2 selects the AVX2 kernels. It is decided once, from CPUID and
// the operating system's saved register state; tests clear it to run
// the solver through rotGo and chain4Go.
var useAVX2 = cpuHasAVX2()

// rotAVX2 is rotGo over YMM registers; len(y) must equal len(x).
//
//go:noescape
func rotAVX2(x, y []float64, c, s float64)

// chain4AVX2 is chain4Go over the lanes of one YMM register; see
// applyChain4. It reports false, having stopped, at a step whose column
// is not below k; rows must hold 4*k entries and p must be below k.
//
//go:noescape
func chain4AVX2(rows []float64, k, p int, steps []step) (ok bool)

func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)

func xgetbv() (eax, edx uint32)

// cpuHasAVX2 reports CPUID.7:EBX[5] (AVX2) together with AVX and
// OSXSAVE in CPUID.1:ECX and the XMM and YMM state enabled in XCR0,
// without which the operating system does not preserve the upper
// halves of the YMM registers.
func cpuHasAVX2() bool {
	if maxID, _, _, _ := cpuid(0, 0); maxID < 7 {
		return false
	}
	const osxsave, avx = 1 << 27, 1 << 28
	if _, _, ecx, _ := cpuid(1, 0); ecx&osxsave == 0 || ecx&avx == 0 {
		return false
	}
	if xcr0, _ := xgetbv(); xcr0&6 != 6 {
		return false
	}
	_, ebx, _, _ := cpuid(7, 0)
	return ebx&(1<<5) != 0
}
