package alloc

import (
	"testing"
)

func BenchmarkGroupAllocFree(b *testing.B) {
	g := NewGroup(0, 0, 1<<40)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sp, err := g.Alloc(4096, -1)
		if err != nil {
			b.Fatal(err)
		}
		if i%2 == 0 { // leave half allocated: realistic fragmentation
			if err := g.FreeSpan(sp.Off, sp.Len); err != nil {
				b.Fatal(err)
			}
		}
	}
}

func BenchmarkAGSetRoundRobin(b *testing.B) {
	s := NewUniformAGSet(0, 1<<40, 8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Alloc("bench", 4096); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkParallelAGs shows why multiple AGs exist: concurrent allocation
// across groups scales, where a single group serializes on its lock.
func BenchmarkParallelAGs(b *testing.B) {
	for _, ags := range []int{1, 8} {
		b.Run(map[int]string{1: "1-group", 8: "8-groups"}[ags], func(b *testing.B) {
			s := NewUniformAGSet(0, 1<<40, ags)
			b.RunParallel(func(pb *testing.PB) {
				for pb.Next() {
					if _, err := s.Alloc("w", 4096); err != nil {
						b.Fatal(err)
					}
				}
			})
		})
	}
}
