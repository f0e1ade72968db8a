package vm

import (
	"testing"

	"repro/internal/hw"
	"repro/internal/sim"
	"repro/internal/stripefs"
)

// Substrate micro-benchmarks: the cost of the simulator's hot paths in
// real (host) time. These bound how fast experiments run, not simulated
// performance.

func benchVM(b *testing.B, frames, spacePages int64) (*sim.Clock, *VM) {
	b.Helper()
	p := hw.Default()
	p.MemoryBytes = frames * p.PageSize
	c := sim.NewClock()
	fs := stripefs.New(c, p, nil)
	f, err := fs.Create("space", spacePages)
	if err != nil {
		b.Fatal(err)
	}
	return c, New(c, p, f)
}

func BenchmarkResidentLoad(b *testing.B) {
	_, v := benchVM(b, 64, 64)
	base, _ := v.Alloc("x", 8*v.Params().PageSize)
	_ = v.LoadF64(base)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = v.LoadF64(base + int64(i%4096)&^7)
	}
}

func BenchmarkResidentStore(b *testing.B) {
	_, v := benchVM(b, 64, 64)
	base, _ := v.Alloc("x", 8*v.Params().PageSize)
	v.StoreF64(base, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		v.StoreF64(base+int64(i%4096)&^7, float64(i))
	}
}

func BenchmarkDemandFaultCycle(b *testing.B) {
	c, v := benchVM(b, 16, 1024)
	ps := v.Params().PageSize
	base, _ := v.Alloc("x", 1024*ps)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// Touch pages in a pattern guaranteed to miss.
		_ = v.LoadF64(base + int64(i%1024)*ps)
	}
	b.StopTimer()
	c.Drain()
}

func BenchmarkPrefetchSyscall(b *testing.B) {
	c, v := benchVM(b, 256, 4096)
	ps := v.Params().PageSize
	base, _ := v.Alloc("x", 4096*ps)
	p0 := v.PageOf(base)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		v.Prefetch((p0+int64(i*4))%4092, 4)
		if i%32 == 0 {
			c.Advance(100 * sim.Millisecond)
		}
	}
	b.StopTimer()
	c.Drain()
}

func BenchmarkReleaseRescueCycle(b *testing.B) {
	c, v := benchVM(b, 64, 64)
	base, _ := v.Alloc("x", 8*v.Params().PageSize)
	_ = v.LoadF64(base)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		v.Release(v.PageOf(base), 1)
		_ = v.LoadF64(base) // minor-fault rescue
	}
	b.StopTimer()
	c.Drain()
}
