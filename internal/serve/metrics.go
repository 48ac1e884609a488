package serve

// Observability surface: an allocation-free log-bucketed latency histogram
// updated with atomics on the request path, and a Metrics snapshot that
// joins it with the per-stage counters (stageClock, rendered through
// pipeline.StageStats) and the admission-queue gauges. The /metrics handler
// serializes the snapshot as JSON.

import (
	"math"
	"sync/atomic"
	"time"

	"skynet/internal/pipeline"
)

// histBuckets spans 50µs..~1100s in ×1.5 steps — fine resolution around
// the few-millisecond latencies a batched CPU detector serves at.
const (
	histBuckets = 42
	histBase    = 50 * time.Microsecond
	histGrowth  = 1.5
)

// histBounds is the one shared table of bucket upper bounds: bucket i
// holds observations d with histBounds[i-1] <= d < histBounds[i] (bucket 0
// holds everything below histBase; the last bucket is the overflow).
// Observe indexes by comparison against this table and Quantile reads the
// same table, so a reported quantile is always an upper bound on every
// observation counted at or below it. The previous code derived the
// observe index from math.Log and the bounds from math.Pow — two
// floating-point paths that disagree at bucket boundaries, letting an
// observation land in a bucket whose reported upper bound was below the
// observed latency (a reported p99 smaller than a real observation).
var histBounds = func() [histBuckets]time.Duration {
	var b [histBuckets]time.Duration
	for i := range b {
		b[i] = time.Duration(float64(histBase) * math.Pow(histGrowth, float64(i)))
	}
	return b
}()

// Histogram is a fixed log-bucketed latency recorder. The zero bucket
// holds everything below histBase; the last bucket is the overflow. It is
// allocation-free and updated with atomics, so it is safe to call Observe
// from any number of goroutines on a hot path. It is exported so other
// measurement surfaces (the search service's per-particle evaluation
// latencies) reuse the same bucket table and conservative quantiles as
// the serving tier.
type Histogram struct {
	counts [histBuckets]atomic.Int64
	total  atomic.Int64
	sumNS  atomic.Int64
}

// NewHistogram returns an empty histogram ready for concurrent Observe.
func NewHistogram() *Histogram { return &Histogram{} }

// Observe records one latency sample. Negative durations clamp to zero.
func (h *Histogram) Observe(d time.Duration) {
	if d < 0 {
		d = 0
	}
	idx := histBuckets - 1 // overflow unless a bound admits d
	for i, upper := range histBounds {
		if d < upper {
			idx = i
			break
		}
	}
	h.counts[idx].Add(1)
	h.total.Add(1)
	h.sumNS.Add(int64(d))
}

// bucketUpper returns the upper bound of bucket i from the shared table.
func bucketUpper(i int) time.Duration { return histBounds[i] }

// Quantile returns the upper bound of the bucket containing the
// rank-⌈q·total⌉ observation — a conservative (never underestimating)
// quantile, resolved to the histogram's ×1.5 bucket granularity. No
// interpolation is attempted inside a bucket. Zero observations report 0.
func (h *Histogram) Quantile(q float64) time.Duration {
	total := h.total.Load()
	if total == 0 {
		return 0
	}
	rank := int64(math.Ceil(q * float64(total)))
	if rank < 1 {
		rank = 1
	}
	var seen int64
	for i := 0; i < histBuckets; i++ {
		seen += h.counts[i].Load()
		if seen >= rank {
			return bucketUpper(i)
		}
	}
	return bucketUpper(histBuckets - 1)
}

// Mean returns the arithmetic mean of all observations (0 when empty).
func (h *Histogram) Mean() time.Duration {
	total := h.total.Load()
	if total == 0 {
		return 0
	}
	return time.Duration(h.sumNS.Load() / total)
}

// Summary digests the histogram into the /metrics latency block.
func (h *Histogram) Summary() LatencySummary {
	return LatencySummary{
		MeanMS: h.Mean().Seconds() * 1e3,
		P50MS:  h.Quantile(0.50).Seconds() * 1e3,
		P95MS:  h.Quantile(0.95).Seconds() * 1e3,
		P99MS:  h.Quantile(0.99).Seconds() * 1e3,
	}
}

// LatencySummary is the request-latency digest exported by /metrics, in
// milliseconds.
type LatencySummary struct {
	MeanMS float64 `json:"mean_ms"`
	P50MS  float64 `json:"p50_ms"`
	P95MS  float64 `json:"p95_ms"`
	P99MS  float64 `json:"p99_ms"`
}

// Metrics is one consistent-enough snapshot of the serving generation's
// engine: its one queue and its workers' counters — individual fields are
// read atomically; the set is not a transaction.
type Metrics struct {
	// QueueDepth is the number of admitted requests waiting for a worker;
	// QueueCap is the admission bound.
	QueueDepth int  `json:"queue_depth"`
	QueueCap   int  `json:"queue_cap"`
	Draining   bool `json:"draining"`

	// Served counts successful detections; Failed per-request errors;
	// Expired callers that hit their deadline before delivery.
	Served  int64 `json:"served"`
	Failed  int64 `json:"failed"`
	Expired int64 `json:"expired"`

	// Batches counts inference flushes; MeanBatchSize is items/flush —
	// the paper's batching leverage, >1 whenever batching is working.
	Batches       int64   `json:"batches"`
	MeanBatchSize float64 `json:"mean_batch_size"`

	Latency LatencySummary `json:"latency"`

	// Stages is the per-stage breakdown: pre- and post-process run on the
	// callers' goroutines (Workers 0), inference on the pool's workers.
	Stages []pipelineStageJSON `json:"stages"`
}

// pipelineStageJSON flattens pipeline.StageStats into JSON-friendly units.
type pipelineStageJSON struct {
	Name          string  `json:"name"`
	Workers       int     `json:"workers"`
	Items         int64   `json:"items"`
	Batches       int64   `json:"batches"`
	BusyMS        float64 `json:"busy_ms"`
	WaitMS        float64 `json:"wait_ms"`
	BlockedMS     float64 `json:"blocked_ms"`
	PerItemMS     float64 `json:"per_item_ms"`
	MeanBatchSize float64 `json:"mean_batch_size"`
	Occupancy     float64 `json:"occupancy"`
}

// stageJSON flattens one stage's stats for the /metrics payload; shared by
// the detection and tracking snapshots.
func stageJSON(st pipeline.StageStats) pipelineStageJSON {
	return pipelineStageJSON{
		Name:          st.Name,
		Workers:       st.Workers,
		Items:         st.Items,
		Batches:       st.Batches,
		BusyMS:        st.Busy.Seconds() * 1e3,
		WaitMS:        st.Wait.Seconds() * 1e3,
		BlockedMS:     st.Blocked.Seconds() * 1e3,
		PerItemMS:     st.PerItemSeconds() * 1e3,
		MeanBatchSize: st.MeanBatchSize(),
		Occupancy:     st.Occupancy(),
	}
}

// PoolMetrics is one snapshot of the pool's counters: the front door's
// (cache, shed, swap, inflight) and the serving generation's engine.
type PoolMetrics struct {
	// Replicas is the inference worker count; Generation the serving
	// generation's version; Swaps the number of completed hot-swaps.
	Replicas   int   `json:"replicas"`
	Generation int64 `json:"generation"`
	Swaps      int64 `json:"swaps"`
	Draining   bool  `json:"draining"`

	// Served/Failed/Expired are the serving generation's counters;
	// CacheServed counts requests answered from the response cache without
	// reaching the queue (not included in Served).
	Served      int64 `json:"served"`
	Failed      int64 `json:"failed"`
	Expired     int64 `json:"expired"`
	CacheServed int64 `json:"cache_served"`

	// Rejected counts requests shed with 429 — the admission queue or the
	// inflight semaphore was full; SwapRetries requests that raced a swap
	// and resubmitted on the new generation.
	Rejected    int64 `json:"rejected"`
	SwapRetries int64 `json:"swap_retries"`

	// Inflight is the number of HTTP requests currently holding an
	// admission slot; InflightCap the bound.
	Inflight    int `json:"inflight"`
	InflightCap int `json:"inflight_cap"`

	Cache CacheMetrics `json:"cache"`

	// Latency is the pool-level success latency (cache hits included).
	Latency LatencySummary `json:"latency"`

	// ReplicaMetrics holds the serving generation's engine snapshot, as its
	// one entry.
	ReplicaMetrics []Metrics `json:"replica_metrics"`

	// Track is the attached tracking service's snapshot, when co-hosted.
	Track *TrackMetrics `json:"track,omitempty"`
}

// Metrics snapshots the pool's observability counters.
func (p *Pool) Metrics() PoolMetrics {
	g := p.gen.Load()
	gm := g.Metrics()
	m := PoolMetrics{
		Replicas:       len(g.models),
		Generation:     g.id,
		Swaps:          p.swaps.Load(),
		Draining:       p.Draining(),
		Served:         gm.Served,
		Failed:         gm.Failed,
		Expired:        gm.Expired,
		CacheServed:    p.cacheServed.Load(),
		Rejected:       p.rejected.Load(),
		SwapRetries:    p.swapRetries.Load(),
		Inflight:       len(p.inflight),
		InflightCap:    cap(p.inflight),
		Cache:          p.cache.stats(),
		Latency:        p.hist.Summary(),
		ReplicaMetrics: []Metrics{gm},
	}
	if p.track != nil {
		tm := p.track.Metrics()
		m.Track = &tm
	}
	return m
}

// Metrics snapshots the generation's observability counters.
func (g *generation) Metrics() Metrics {
	m := Metrics{
		QueueDepth: len(g.in),
		QueueCap:   cap(g.in),
		Draining:   g.isDraining(),
		Served:     g.served.Load(),
		Failed:     g.failed.Load(),
		Expired:    g.expired.Load(),
		Latency:    g.hist.Summary(),
	}
	infer := g.work.snapshot(pipeline.StageInfer, len(g.models))
	m.Batches, m.MeanBatchSize = infer.Batches, infer.MeanBatchSize
	m.Stages = []pipelineStageJSON{g.pre.snapshot(pipeline.StagePre, 0), infer, g.post.snapshot(pipeline.StagePost, 0)}
	return m
}
