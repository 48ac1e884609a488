package main

// Process-level measurements: the Go allocator and collector (the resource
// every layer shares), peak resident memory, and the environment recorded
// beside each result so that runs are only compared like with like.

import (
	"bufio"
	"fmt"
	"os"
	"runtime"
	"runtime/metrics"
	"strconv"
	"strings"
	"sync"
	"time"

	"skynet/internal/tensor"
)

// environment is what a result was measured on. Results whose kernel name
// or GOMAXPROCS differ are not comparable, and compare mode refuses them.
type environment struct {
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Kernel     string `json:"kernel_f32"`
	Int8Kernel string `json:"kernel_int8"`
	GoVersion  string `json:"go_version"`
	Commit     string `json:"commit"`
}

// clientLimit is min(nproc, 4): the scheduler width the benchmark pins, and
// the most connections or sessions its load generators use, so that the
// generator cannot oversubscribe the machine it shares with the system.
func clientLimit() int { return min(runtime.NumCPU(), 4) }

func currentEnv(commit string) environment {
	return environment{
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Kernel:     tensor.KernelName(),
		Int8Kernel: tensor.Int8KernelName(),
		GoVersion:  runtime.Version(),
		Commit:     commit,
	}
}

// peakRSSMB reads VmHWM, the process's peak resident set, in MB.
func peakRSSMB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, fmt.Errorf("peak rss: %w", err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) >= 2 && fields[0] == "VmHWM:" {
			kb, err := strconv.ParseFloat(fields[1], 64)
			if err != nil {
				return 0, fmt.Errorf("peak rss: %w", err)
			}
			return kb / 1024, nil
		}
	}
	if err := sc.Err(); err != nil {
		return 0, fmt.Errorf("peak rss: %w", err)
	}
	return 0, fmt.Errorf("peak rss: no VmHWM line in /proc/self/status")
}

// memMark is a point-in-time reading of the allocator and collector.
type memMark struct {
	mallocs, bytes uint64
	numGC          uint32
	pauses         [256]uint64
	gcCPU, allCPU  float64
}

func markMem() memMark {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	samples := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	metrics.Read(samples)
	m := memMark{mallocs: ms.Mallocs, bytes: ms.TotalAlloc, numGC: ms.NumGC, pauses: ms.PauseNs}
	if samples[0].Value.Kind() == metrics.KindFloat64 {
		m.gcCPU = samples[0].Value.Float64()
	}
	if samples[1].Value.Kind() == metrics.KindFloat64 {
		m.allCPU = samples[1].Value.Float64()
	}
	return m
}

// memDelta is what the process allocated and collected between two marks.
type memDelta struct {
	mallocs, bytes float64
	gcCPUShare     float64
	pausesMS       []float64
}

func (a memMark) until(b memMark) memDelta {
	d := memDelta{mallocs: float64(b.mallocs - a.mallocs), bytes: float64(b.bytes - a.bytes)}
	if cpu := b.allCPU - a.allCPU; cpu > 0 {
		d.gcCPUShare = (b.gcCPU - a.gcCPU) / cpu
	}
	// PauseNs is a ring of the most recent 256 pauses; cycle n's pause is
	// at index (n+255)%256.
	first := a.numGC + 1
	if b.numGC >= 256 && first < b.numGC-255 {
		first = b.numGC - 255
	}
	for n := first; n <= b.numGC; n++ {
		d.pausesMS = append(d.pausesMS, float64(b.pauses[(n+255)%256])/1e6)
	}
	return d
}

// goroutineWatch samples the goroutine count until stopped.
type goroutineWatch struct {
	stop chan struct{}
	done sync.WaitGroup
	peak int
}

func watchGoroutines() *goroutineWatch {
	w := &goroutineWatch{stop: make(chan struct{})}
	w.done.Add(1)
	go func() {
		defer w.done.Done()
		tick := time.NewTicker(5 * time.Millisecond)
		defer tick.Stop()
		for {
			if n := runtime.NumGoroutine(); n > w.peak {
				w.peak = n
			}
			select {
			case <-w.stop:
				return
			case <-tick.C:
			}
		}
	}()
	return w
}

// halt stops the sampler and returns the peak it saw.
func (w *goroutineWatch) halt() int {
	close(w.stop)
	w.done.Wait()
	return w.peak
}
