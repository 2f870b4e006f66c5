package deque

import "testing"

func BenchmarkPushPopFIFO(b *testing.B) {
	var d Deque
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.PushBack(int64(i))
		if d.Len() > 64 {
			d.PopFront()
		}
	}
}

func BenchmarkPushBackPopBothEnds(b *testing.B) {
	var d Deque
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		switch i % 4 {
		case 0, 1:
			d.PushBack(int64(i))
		case 2:
			if !d.Empty() {
				d.PopFront()
			}
		default:
			if !d.Empty() {
				d.PopBack()
			}
		}
	}
}

// BenchmarkGrowShrinkCycle stresses the resize path with bursts.
func BenchmarkGrowShrinkCycle(b *testing.B) {
	var d Deque
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := 0; j < 256; j++ {
			d.PushBack(int64(j))
		}
		for !d.Empty() {
			d.PopFront()
		}
	}
}
