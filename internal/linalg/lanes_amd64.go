package linalg

// lanesSupported reports whether this CPU runs the AVX2 tiles of
// lanes_amd64.s and the OS saves their registers: CPUID leaf 7 EBX bit 5
// (AVX2), leaf 1 ECX bits 27 (OSXSAVE) and 28 (AVX), and XCR0 bits 1–2
// (XMM and YMM state).
var lanesSupported = func() bool {
	maxLeaf, _, _, _ := cpuid(0, 0)
	if maxLeaf < 7 {
		return false
	}
	_, _, ecx1, _ := cpuid(1, 0)
	if ecx1&(1<<27) == 0 || ecx1&(1<<28) == 0 || xgetbv()&6 != 6 {
		return false
	}
	_, ebx7, _, _ := cpuid(7, 0)
	return ebx7&(1<<5) != 0
}()

func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)

func xgetbv() (eax uint32)

//go:noescape
func scores8(a *float64, lda int, w *float64, ldw int, p int, s *float64, lds int)

//go:noescape
func scores4(a *float64, lda int, w *float64, ldw int, p int, s *float64, lds int, mask *[4]int64)

//go:noescape
func accum8(a *float64, lda int, d *float64, ldd int, p int, gt *float64, ldg int)

//go:noescape
func accum4(a *float64, lda int, d *float64, ldd int, p int, gt *float64, ldg int, mask *[4]int64)
