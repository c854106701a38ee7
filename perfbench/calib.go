package main

import (
	"cmp"
	"crypto/sha256"
	"fmt"
	"hash/fnv"
	"runtime"
	"slices"
	"sort"
	"time"
)

// The reference host's speed is not steady: with steal near zero, fixed
// work runs at one of two speeds about 1.7 times apart, and the host
// switches between them within a second (README.md, "Host speed"). The
// benchmark measures the speed while it runs: between ops, each client
// runs a calibration kernel — fixed work, written with the standard
// library only so that no change to the repository moves it — whenever
// calEveryMs have passed since its last one, and records its CPU time.
// An op's speed is calRefMs over the median time of the kernels run
// nearest to it, and wall-clock and CPU figures are scaled by it to what
// they would read at the reference speed.
const (
	calKeys = 256 // map keys and sorted values per kernel pass
	// calEveryMs is the longest a client runs ops between two kernels.
	calEveryMs = 25.0
	// calWindowMs and calNearest pick an op's kernels: those that ended
	// within calWindowMs of the op, or the calNearest nearest when fewer
	// did, as for the ~80 ms ops of scale and paper (README.md, "Host
	// speed", gives the measurements behind them).
	calWindowMs = 250.0
	calNearest  = 25
	// calRefMs is the kernel's time at the reference speed, a typical
	// median on the reference host (2 vCPUs, Go 1.24). It only sets the
	// scale of the figures: on a host that runs the kernel that fast, they
	// read what the clock reads.
	calRefMs = 0.155
)

// calKeyHashes are the kernel's map keys, the same on every run.
var calKeyHashes = func() []uint64 {
	keys := make([]uint64, calKeys)
	for i := range keys {
		h := fnv.New64a()
		fmt.Fprintf(h, "value%d.%d", i*7919%calKeys, i)
		keys[i] = h.Sum64()
	}
	return keys
}()

// kernel is one client's calibration state. Its buffers are allocated
// once, so a run of the kernel allocates nothing and leaves the
// workload's heap and collections alone; and it writes no pointers, so
// the write barrier a running collection turns on does not slow it.
type kernel struct {
	idx  map[uint64]uint64
	vals []uint64
	buf  [4096]byte
	sink byte
}

func newKernel() *kernel {
	return &kernel{idx: make(map[uint64]uint64, calKeys), vals: make([]uint64, 0, calKeys)}
}

// run does the kernel's fixed work twice and returns the thread CPU
// milliseconds of the second time. The first brings the kernel's data
// and code back into the caches, so the time measures the CPU's speed
// and not how much of the caches the op before it used. CPU time leaves
// out the time the hypervisor stole, which the loops account for
// separately.
func (k *kernel) run() float64 {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	k.work()
	c0 := threadCPUMs()
	k.work()
	return threadCPUMs() - c0
}

// work builds and reads a map, sorts and hashes: the kinds of work the
// workloads do.
func (k *kernel) work() {
	for rep := uint64(0); rep < 8; rep++ {
		clear(k.idx)
		for i, key := range calKeyHashes {
			k.idx[key] = uint64(i)*31 + rep
		}
		k.vals = k.vals[:0]
		for _, key := range calKeyHashes {
			k.vals = append(k.vals, k.idx[key]^key)
		}
		slices.Sort(k.vals)
		for i, v := range k.vals {
			k.buf[i%len(k.buf)] ^= byte(v)
		}
		sum := sha256.Sum256(k.buf[:])
		k.sink ^= sum[0]
	}
}

// calUnit is one kernel run: when it ended, in milliseconds since the
// loop began, and its CPU milliseconds.
type calUnit struct {
	at float64
	ms float64
}

// opSpeeds returns each op's speed, 1 at the reference speed and below
// 1 on a slower host: calRefMs over the median time of the kernels that
// ended within calWindowMs of the op, or of the calNearest kernels
// nearest to its midpoint when fewer did. start and lat give each op's
// start and latency in milliseconds; units need not be sorted.
func opSpeeds(start, lat []float64, units []calUnit) []float64 {
	us := slices.Clone(units)
	slices.SortFunc(us, func(a, b calUnit) int { return cmp.Compare(a.at, b.at) })
	at := make([]float64, len(us))
	for i, u := range us {
		at[i] = u.at
	}
	speeds := make([]float64, len(start))
	var ms []float64
	for i := range start {
		lo := sort.SearchFloat64s(at, start[i]-calWindowMs)
		hi := sort.SearchFloat64s(at, start[i]+lat[i]+calWindowMs)
		if hi-lo < calNearest {
			lo, hi = nearest(at, start[i]+lat[i]/2, calNearest)
		}
		ms = ms[:0]
		for _, u := range us[lo:hi] {
			ms = append(ms, u.ms)
		}
		speeds[i] = calRefMs / median(ms)
	}
	return speeds
}

// nearest returns the bounds [lo, hi) of the k sorted times nearest to
// t, or of all of them when there are fewer.
func nearest(at []float64, t float64, k int) (lo, hi int) {
	lo = sort.SearchFloat64s(at, t)
	hi = lo
	for hi-lo < k && (lo > 0 || hi < len(at)) {
		if hi == len(at) || (lo > 0 && t-at[lo-1] <= at[hi]-t) {
			lo--
		} else {
			hi++
		}
	}
	return lo, hi
}

// pacer runs the kernel every calEveryMs on a goroutine of its own while
// a workload sets up, which leaves a CPU idle; stop ends it and returns
// the host's speed over the set-up.
type pacer struct {
	quit chan struct{}
	done chan []float64
}

func startPacer() *pacer {
	p := &pacer{quit: make(chan struct{}), done: make(chan []float64, 1)}
	go func() {
		k := newKernel()
		ms := []float64{k.run()}
		t := time.NewTicker(time.Duration(calEveryMs * float64(time.Millisecond)))
		defer t.Stop()
		for {
			select {
			case <-p.quit:
				p.done <- append(ms, k.run())
				return
			case <-t.C:
				ms = append(ms, k.run())
			}
		}
	}()
	return p
}

// stop ends the pacer, waits for it and returns the speed it measured.
func (p *pacer) stop() float64 {
	close(p.quit)
	return calRefMs / median(<-p.done)
}
