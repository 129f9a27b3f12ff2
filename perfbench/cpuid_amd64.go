package main

func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)

// cpuFeatures reports AVX2 and FMA availability as CPUID advertises them.
// Both matter for reading the results: the nn kernels take an AVX2 path,
// and math.Exp takes an FMA branch, so "bitwise equal to offline" holds
// per machine.
func cpuFeatures() (avx2, fma bool) {
	maxLeaf, _, _, _ := cpuid(0, 0)
	if maxLeaf < 7 {
		return false, false
	}
	_, _, ecx1, _ := cpuid(1, 0)
	_, ebx7, _, _ := cpuid(7, 0)
	return ebx7&(1<<5) != 0, ecx1&(1<<12) != 0
}
