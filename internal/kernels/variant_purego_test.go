//go:build !amd64 || purego

package kernels

// The Go kernels are the only variant: nothing to switch.
func gemmVariants() []gemmVariant { return []gemmVariant{{name: "purego"}} }

func useGEMMVariant(string) (restore func()) { return func() {} }
