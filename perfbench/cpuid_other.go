//go:build !amd64

package main

// cpuFeatures reports no x86 vector features off amd64.
func cpuFeatures() (avx2, fma bool) { return false, false }
