package pipeline

// The micro-batch collector of the §6.3 batched-inference stage, exported
// because it has two callers: the executor's batchWorker, and the serving
// lane's worker loop (internal/serve/lane.go), which forms its batches of
// independent requests with the exact same MaxBatch / MaxDelay semantics —
// so there is one batching policy in the codebase.

import (
	"context"
	"time"
)

// BatchEnd reports how a CollectBatch call ended.
type BatchEnd struct {
	// Drained is set when the input channel closed during collection; the
	// partial batch returned alongside it is still valid and should be
	// flushed before shutting down.
	Drained bool
	// Cancelled is set when the context fired during collection. The
	// returned batch must be discarded: the run it belongs to is dead.
	Cancelled bool
	// FirstWait is how long the call blocked before the batch's first item
	// arrived — the stage's starvation time for this batch.
	FirstWait time.Duration
}

// CollectBatch gathers one micro-batch from in: it blocks for the first
// item, then tops up until the batch holds max items, delay has elapsed
// since the first item arrived, the input channel closes, or ctx fires.
// A delay of 0 means wait indefinitely for a full batch (the batch still
// flushes when the input closes). The batch is appended to buf[:0], so
// callers can reuse one backing array across calls.
func CollectBatch[T any](ctx context.Context, in <-chan T, max int, delay time.Duration, buf []T) ([]T, BatchEnd) {
	batch := buf[:0]
	if max <= 0 {
		max = 1
	}
	var end BatchEnd
	t0 := time.Now()
	select {
	case v, ok := <-in:
		end.FirstWait = time.Since(t0)
		if !ok {
			end.Drained = true
			return batch, end
		}
		batch = append(batch, v)
	case <-ctx.Done():
		end.FirstWait = time.Since(t0)
		end.Cancelled = true
		return batch, end
	}

	var timer *time.Timer
	var deadline <-chan time.Time
	if delay > 0 {
		timer = time.NewTimer(delay)
		defer timer.Stop()
		deadline = timer.C
	}
	for len(batch) < max {
		select {
		case v, ok := <-in:
			if !ok {
				end.Drained = true
				return batch, end
			}
			batch = append(batch, v)
		case <-deadline:
			return batch, end
		case <-ctx.Done():
			end.Cancelled = true
			return batch, end
		}
	}
	return batch, end
}
