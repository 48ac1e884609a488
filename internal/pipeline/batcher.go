package pipeline

// The micro-batch collector of the §6.3 batched-inference stage, exported
// because it has two callers: the executor's batchLoop, and the serving
// lane's worker loop (internal/serve/lane.go), which forms its batches of
// independent requests by the same rule — so there is one batching policy in
// the codebase. The rule is work-conserving: a batch is what queued while the
// previous forward ran. §6.3's speed-up is the overlap of consecutive frames'
// stages and one weight load per batch; holding a ready item back for
// partners that may not come buys neither.

import "time"

// BatchEnd reports how a CollectBatch call ended.
type BatchEnd struct {
	// Drained is set when the input channel closed during collection; the
	// partial batch returned alongside it is still valid and should be
	// flushed before shutting down.
	Drained bool
	// Cancelled is set when done closed before a first item arrived: the
	// batch is empty and the run it belongs to is dead.
	Cancelled bool
	// FirstWait is how long the call blocked before the batch's first item
	// arrived — the stage's starvation time for this batch.
	FirstWait time.Duration
}

// CollectBatch gathers one micro-batch from in: it blocks for the first
// item — or until done closes; a nil done never does — then takes what is
// already queued, up to max items, without waiting for more. The batch is
// appended to buf[:0], so callers can reuse one backing array across calls.
func CollectBatch[T any](done <-chan struct{}, in <-chan T, max int, buf []T) ([]T, BatchEnd) {
	batch := buf[:0]
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
	case <-done:
		end.FirstWait = time.Since(t0)
		end.Cancelled = true
		return batch, end
	}
	for len(batch) < max {
		select {
		case v, ok := <-in:
			if !ok {
				end.Drained = true
				return batch, end
			}
			batch = append(batch, v)
		default:
			return batch, end
		}
	}
	return batch, end
}
