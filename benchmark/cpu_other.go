//go:build !unix

package main

// cpuSeconds has no portable source off unix; go.cpu_s_per_kop reads 0.
func cpuSeconds() float64 { return 0 }
