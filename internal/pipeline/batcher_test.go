package pipeline

import "testing"

func TestCollectBatchFillsToMax(t *testing.T) {
	in := make(chan int, 8)
	for i := 0; i < 8; i++ {
		in <- i
	}
	batch, end := CollectBatch(nil, in, 4, nil)
	if len(batch) != 4 || end.Drained || end.Cancelled {
		t.Fatalf("batch %v end %+v, want 4 items clean", batch, end)
	}
	for i, v := range batch {
		if v != i {
			t.Fatalf("batch[%d] = %d, want %d", i, v, i)
		}
	}
}

// The rule itself: a batch is the first item plus what is already queued —
// min(len, max) items, in order — and the call returns without waiting for
// the channel to close or for partners that have not arrived.
func TestCollectBatchTakesOnlyWhatIsQueued(t *testing.T) {
	for _, tc := range []struct{ queued, max, want int }{
		{1, 4, 1}, {3, 4, 3}, {4, 4, 4}, {7, 4, 4}, {2, 1, 1}, {2, 0, 1},
	} {
		in := make(chan int, 8) // stays open: nothing else will ever arrive
		for i := 0; i < tc.queued; i++ {
			in <- i
		}
		batch, end := CollectBatch(nil, in, tc.max, nil)
		if len(batch) != tc.want || end.Drained || end.Cancelled {
			t.Fatalf("%d queued, max %d: batch %v end %+v, want %d items clean", tc.queued, tc.max, batch, end, tc.want)
		}
		for i, v := range batch {
			if v != i {
				t.Fatalf("%d queued, max %d: batch[%d] = %d, want %d", tc.queued, tc.max, i, v, i)
			}
		}
		if left := len(in); left != tc.queued-tc.want {
			t.Fatalf("%d queued, max %d: %d left in the queue, want %d", tc.queued, tc.max, left, tc.queued-tc.want)
		}
	}
}

func TestCollectBatchDrain(t *testing.T) {
	in := make(chan int, 4)
	in <- 1
	in <- 2
	close(in)
	// A closed channel still hands over its partial batch.
	batch, end := CollectBatch(nil, in, 4, nil)
	if len(batch) != 2 || !end.Drained || end.Cancelled {
		t.Fatalf("batch %v end %+v, want drained partial batch", batch, end)
	}
	// A drained channel with nothing pending reports an empty drained batch.
	batch, end = CollectBatch(nil, in, 4, batch)
	if len(batch) != 0 || !end.Drained {
		t.Fatalf("batch %v end %+v, want empty drain", batch, end)
	}
}

func TestCollectBatchCancel(t *testing.T) {
	done := make(chan struct{})
	close(done)
	in := make(chan int) // nothing will ever arrive
	batch, end := CollectBatch(done, in, 4, nil)
	if !end.Cancelled || len(batch) != 0 {
		t.Fatalf("batch %v end %+v, want cancelled", batch, end)
	}
}

func TestCollectBatchReusesBuffer(t *testing.T) {
	in := make(chan int, 4)
	in <- 1
	in <- 2
	buf := make([]int, 0, 4)
	batch, _ := CollectBatch(nil, in, 2, buf)
	if &batch[0] != &buf[:1][0] {
		t.Fatal("CollectBatch must append into the caller's buffer")
	}
}

func TestStageStatsMeanBatchSize(t *testing.T) {
	s := StageStats{Items: 12, Batches: 4}
	if got := s.MeanBatchSize(); got != 3 {
		t.Fatalf("mean batch size %v, want 3", got)
	}
	if (StageStats{Items: 5}).MeanBatchSize() != 0 {
		t.Fatal("per-item stages must report 0")
	}
}
