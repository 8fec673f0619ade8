package sim

import (
	"fmt"
	"testing"
)

// BenchmarkEngineScheduleRun measures raw event throughput: schedule and
// drain 1k events per iteration.
func BenchmarkEngineScheduleRun(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		eng := NewEngine()
		for j := 0; j < 1000; j++ {
			eng.Schedule(Time(j)*Millisecond, func() {})
		}
		eng.Run()
	}
}

// BenchmarkEngineNestedChain measures the self-scheduling pattern the
// decoder and tickers use.
func BenchmarkEngineNestedChain(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		eng := NewEngine()
		n := 0
		var step func()
		step = func() {
			n++
			if n < 1000 {
				eng.Schedule(Millisecond, step)
			}
		}
		eng.Schedule(Millisecond, step)
		eng.Run()
	}
}

// BenchmarkEngineHold is the classic hold model: the queue is held at a
// fixed depth, and each operation fires the earliest event, which
// schedules its replacement an exponentially distributed increment later.
// The depths are the cohort-cell workload's (1200 viewers, ~4.4 pending
// events each): ~1.3k on each of 4 shards, ~5k on a single shard.
func BenchmarkEngineHold(b *testing.B) {
	for _, depth := range []int{1300, 5000} {
		b.Run(fmt.Sprintf("pending=%d", depth), func(b *testing.B) {
			g := Stream(1, "hold")
			incs := make([]Time, 4096)
			for i := range incs {
				incs[i] = Time(g.Exp(float64(depth) * 1e-3))
			}
			eng := NewEngine()
			n := 0
			var hold func()
			hold = func() {
				n++
				if n == b.N {
					eng.Stop()
				}
				eng.Schedule(incs[n&(len(incs)-1)], hold)
			}
			for i := 0; i < depth; i++ {
				eng.Schedule(Time(g.Exp(float64(depth)*1e-3)), hold)
			}
			b.ReportAllocs()
			b.ResetTimer()
			eng.Run()
		})
	}
}

// BenchmarkRNGLognormal measures the hot demand-jitter draw.
func BenchmarkRNGLognormal(b *testing.B) {
	g := Stream(1, "bench")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = g.LognormalMeanCV(1e7, 0.3)
	}
}
