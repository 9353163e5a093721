package main

import (
	"bufio"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// The benchmark runs in a virtual machine whose host takes CPU away (the
// "steal" column of /proc/stat), at times for minutes on end, and a request
// that loses its CPU to the host waits for it. The window is cut into
// slices, and the end-to-end figures leave out the slices in which the host
// stole more than stealLimit of the CPU, but never more than three quarters
// of them: past that, the quietest quarter is kept. The choice looks only
// at the host, never at what the program did in the slice.

const (
	sliceLen   = 250 * time.Millisecond
	stealLimit = 0.02
)

// slice is one stretch of the measurement window, relative to its start,
// with the share of CPU time the host stole during it.
type slice struct {
	start, end time.Duration
	steal      float64
}

// stealSampler reads /proc/stat every sliceLen until stopped.
type stealSampler struct {
	stopc chan struct{}
	done  chan struct{}

	mu     sync.Mutex
	slices []slice
}

// sampleSteal starts sampling; the slices are relative to start.
func sampleSteal(start time.Time) *stealSampler {
	s := &stealSampler{stopc: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(s.done)
		prev := readTicks()
		prevAt := time.Since(start)
		tick := time.NewTicker(sliceLen)
		defer tick.Stop()
		for {
			select {
			case <-s.stopc:
				return
			case <-tick.C:
			}
			cur := readTicks()
			at := time.Since(start)
			s.mu.Lock()
			s.slices = append(s.slices, slice{start: prevAt, end: at, steal: stealShare(prev, cur)})
			s.mu.Unlock()
			prev, prevAt = cur, at
		}
	}()
	return s
}

// stop ends sampling and returns the quiet slices among the whole slices
// that lie within the window.
func (s *stealSampler) stop(window time.Duration) quietSlices {
	close(s.stopc)
	<-s.done
	var in []slice
	for _, sl := range s.slices {
		if sl.end <= window+sliceLen/4 {
			in = append(in, sl)
		}
	}
	return keepQuiet(in)
}

// quietSlices is the set of slices a run's figures are computed from.
type quietSlices []slice

// keepQuiet keeps the slices whose steal share is at most stealLimit, or at
// most the first quartile of the slices' shares when that is higher. A
// window shorter than one slice is kept whole.
func keepQuiet(all []slice) quietSlices {
	if len(all) == 0 {
		return quietSlices{{start: 0, end: 1<<62 - 1}}
	}
	shares := make([]float64, len(all))
	for i, sl := range all {
		shares[i] = sl.steal
	}
	sort.Float64s(shares)
	limit := max(stealLimit, shares[(len(shares)-1)/4])
	var out quietSlices
	for _, sl := range all {
		if sl.steal <= limit {
			out = append(out, sl)
		}
	}
	return out
}

// holds reports whether an event at t (relative to the window start) falls
// in a kept slice.
func (q quietSlices) holds(t time.Duration) bool {
	for _, sl := range q {
		if t >= sl.start && t < sl.end {
			return true
		}
	}
	return false
}

// span is the total length of the kept slices.
func (q quietSlices) span() time.Duration {
	var d time.Duration
	for _, sl := range q {
		d += sl.end - sl.start
	}
	return d
}

// cpuTicks are the steal and total ticks of each CPU, from the cpuN lines
// of /proc/stat.
type cpuTicks []struct{ steal, total int64 }

// readTicks reads the per-CPU ticks; nil where /proc/stat is unreadable,
// which keeps every slice.
func readTicks() cpuTicks {
	f, err := os.Open("/proc/stat")
	if err != nil {
		return nil
	}
	defer f.Close()
	var out cpuTicks
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		// cpuN user nice system idle iowait irq softirq steal; guest time
		// is already counted in user.
		fields := strings.Fields(sc.Text())
		if len(fields) < 9 || !strings.HasPrefix(fields[0], "cpu") || fields[0] == "cpu" {
			continue
		}
		var steal, total int64
		for i := 1; i <= 8; i++ {
			n, _ := strconv.ParseInt(fields[i], 10, 64)
			if i == 8 {
				steal = n
			}
			total += n
		}
		out = append(out, struct{ steal, total int64 }{steal, total})
	}
	return out
}

// stealShare is the largest share of its time any one CPU lost to the
// host between two readings: the program's threads may run on any CPU, so
// a stretch is only as quiet as its most stolen CPU.
func stealShare(prev, cur cpuTicks) float64 {
	share := 0.0
	for i := range min(len(prev), len(cur)) {
		if d := cur[i].total - prev[i].total; d > 0 {
			share = max(share, float64(cur[i].steal-prev[i].steal)/float64(d))
		}
	}
	return share
}
