package main

import (
	"crypto/sha256"
	"runtime"
	"slices"
	"syscall"
	"time"
	"unsafe"

	"kubeknots/internal/dlsim"
	"kubeknots/internal/k8s"
	"kubeknots/internal/knots"
	"kubeknots/internal/sim"
)

// The benchmark runs on shared machines whose speed drifts. On a 2-vCPU VM
// the same input's pass time swung by a quarter either way within a minute
// and by half between phases minutes apart, so host seconds cannot be
// compared across runs. Two things take the host out of the figures:
//
//   - Time is the process's CPU time (user + system), not wall time. The
//     kernel does not charge a process for time its vCPU was stolen by the
//     hypervisor or for time it waited to be scheduled.
//   - That CPU time is scaled by refNominalS / (median CPU time of a fixed
//     reference kernel timed between the pass's stretches of work, at least
//     every refInterval), which takes out how fast the host runs the
//     instructions it does run: cache and memory contention, clock speed.
//
// The result is CPU seconds at the reference host speed. The kernel is the
// benchmark's own code, so no change to the program speeds it up or slows
// it down; its buffers live outside the Go heap, so it neither allocates
// nor moves the program's garbage-collection pacing.

const (
	// refNominalS is one kernel repetition's CPU time on a quiet 2-vCPU
	// 2.0 GHz VM. It only fixes the unit: scaled times read as CPU seconds
	// on that machine.
	refNominalS = 0.006
	// refReps kernel repetitions make one reading; the reading is their
	// median, so an interrupt during one repetition does not move it.
	refReps = 3

	refChaseLen = 1 << 20 // 4 MiB of uint32: a random single-cycle permutation
	refChaseOps = 60000
	refTableLen = 1 << 16 // 512 KiB open-addressing hash table
	refTableOps = 40000
	refSortLen  = 1 << 13
	refHashLen  = 64 << 10
)

// refBuffers are the kernel's working set, mapped outside the Go heap.
type refBuffers struct {
	chase []uint32
	table []uint64
	sort  []uint32
	hash  []byte
	pos   uint32
	sink  uint64
}

var refBuf *refBuffers

// initRefKernel maps and fills the kernel's buffers and warms them up.
func initRefKernel() error {
	if refBuf != nil {
		return nil
	}
	size := 4*refChaseLen + 8*refTableLen + 4*refSortLen + refHashLen
	mem, err := syscall.Mmap(-1, 0, size, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		return err
	}
	// Small pages always: whether a mapping gets huge pages differs from
	// process to process and would make the kernel's speed differ with it.
	if err := syscall.Madvise(mem, syscall.MADV_NOHUGEPAGE); err != nil {
		return err
	}
	b := &refBuffers{}
	off := 0
	b.chase = unsafe.Slice((*uint32)(unsafe.Pointer(&mem[off])), refChaseLen)
	off += 4 * refChaseLen
	b.table = unsafe.Slice((*uint64)(unsafe.Pointer(&mem[off])), refTableLen)
	off += 8 * refTableLen
	b.sort = unsafe.Slice((*uint32)(unsafe.Pointer(&mem[off])), refSortLen)
	off += 4 * refSortLen
	b.hash = mem[off : off+refHashLen]

	// Sattolo's algorithm: one cycle through every slot, so the chase
	// visits the whole array in a cache-hostile order.
	x := uint64(0x9E3779B97F4A7C15)
	for i := range b.chase {
		b.chase[i] = uint32(i)
	}
	for i := refChaseLen - 1; i > 0; i-- {
		j := int(xorshift(&x) % uint64(i))
		b.chase[i], b.chase[j] = b.chase[j], b.chase[i]
	}
	for i := range b.hash {
		b.hash[i] = byte(xorshift(&x))
	}
	refBuf = b
	for i := 0; i < 5; i++ {
		refKernelOnce()
	}
	return nil
}

func xorshift(x *uint64) uint64 {
	*x ^= *x << 13
	*x ^= *x >> 7
	*x ^= *x << 17
	return *x
}

// refKernelOnce is one repetition of the kernel: dependent loads across
// 4 MiB, hash-table inserts and probes, a sort and a SHA-256, the mix of
// memory latency, branches and arithmetic the simulator itself runs on.
// The chase's working set is larger than a core's L2 cache, as the
// simulator's heap is, so the kernel feels contention in the shared cache
// as the program does; a kernel that fits L2 tracked the program worse.
func refKernelOnce() {
	b := refBuf
	p := b.pos
	for i := 0; i < refChaseOps; i++ {
		p = b.chase[p]
	}
	b.pos = p

	clear(b.table)
	x := uint64(p) | 1
	mask := uint64(refTableLen - 1)
	hits := uint64(0)
	for i := 0; i < refTableOps; i++ {
		k := xorshift(&x)%(refTableLen/2) + 1
		h := (k * 0x9E3779B97F4A7C15) >> 48 & mask
		for b.table[h] != 0 && b.table[h] != k {
			h = (h + 1) & mask
		}
		if b.table[h] == k {
			hits++
		}
		b.table[h] = k
	}

	for i := range b.sort {
		b.sort[i] = uint32(xorshift(&x))
	}
	slices.Sort(b.sort)

	sum := sha256.Sum256(b.hash)
	b.sink += hits + uint64(b.sort[0]) + uint64(sum[0])
}

// refKernel returns one reading: the median CPU time of refReps kernel
// repetitions on the calling thread.
func refKernel() float64 {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	var reps [refReps]float64
	for i := range reps {
		t0 := cpuSeconds(clockThreadCPUTime)
		refKernelOnce()
		reps[i] = cpuSeconds(clockThreadCPUTime) - t0
	}
	return median(reps[:])
}

// Linux's per-process and per-thread CPU-time clocks. They read the
// scheduler's exact runtime, which leaves out time stolen by the
// hypervisor; getrusage's user and system split is sampled at clock ticks
// and can lag the exact sum.
const (
	clockProcessCPUTime = 2 // CLOCK_PROCESS_CPUTIME_ID
	clockThreadCPUTime  = 3 // CLOCK_THREAD_CPUTIME_ID
)

// cpuSeconds reads one of the CPU-time clocks.
func cpuSeconds(clock int) float64 {
	var ts syscall.Timespec
	if _, _, errno := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, uintptr(clock), uintptr(unsafe.Pointer(&ts)), 0); errno != 0 {
		panic(errno)
	}
	return float64(ts.Nano()) / 1e9
}

// refClock accumulates the CPU and wall time of a pass's timed stretches
// and the kernel readings taken between them. The pass's CPU time at the
// reference speed is its CPU time scaled by refNominalS / (median reading):
// one reading is noisy, the median of a pass's readings is not. The
// kernel's own time is never charged.
type refClock struct {
	since    time.Time // start of the current stretch
	cpu0     float64   // process CPU time at the start of the stretch
	cpuS     float64
	wallS    float64
	readings []float64
}

// refInterval is the longest a stretch runs before lapIfDue takes a
// reading inside a simulation, so a long pass still gets several.
const refInterval = 250 * time.Millisecond

// startRefClock takes a first reading and starts the first stretch.
func startRefClock() *refClock {
	c := &refClock{readings: []float64{refKernel()}}
	c.skip()
	return c
}

// lap ends the current stretch, charges it, takes a reading and starts the
// next stretch.
func (c *refClock) lap() {
	c.cpuS += cpuSeconds(clockProcessCPUTime) - c.cpu0
	c.wallS += time.Since(c.since).Seconds()
	c.readings = append(c.readings, refKernel())
	c.skip()
}

// lapIfDue laps when the current stretch has run for refInterval.
func (c *refClock) lapIfDue() {
	if time.Since(c.since) >= refInterval {
		c.lap()
	}
}

// skip restarts the current stretch without charging the time since the
// last lap: work between two timed stretches that the pass does not count.
func (c *refClock) skip() {
	c.since = time.Now()
	c.cpu0 = cpuSeconds(clockProcessCPUTime)
}

// refCPUS is the charged CPU time at the reference speed.
func (c *refClock) refCPUS() float64 { return scaled(c.cpuS, c.readings) }

// scaled converts CPU seconds to reference CPU seconds by the median of the
// kernel readings taken around them.
func scaled(cpuS float64, readings []float64) float64 {
	return cpuS * refNominalS / median(readings)
}

// lapScheduler forwards to a k8s.Scheduler and lets the pass's clock take a
// reading between scheduling rounds once refInterval has passed.
type lapScheduler struct {
	k8s.Scheduler
	clock *refClock
}

func (s lapScheduler) Schedule(now sim.Time, pending []*k8s.Pod, snap *knots.Snapshot) []k8s.Decision {
	ds := s.Scheduler.Schedule(now, pending, snap)
	s.clock.lapIfDue()
	return ds
}

// lapPolicy does the same for a dlsim.Policy, between training placements.
type lapPolicy struct {
	dlsim.Policy
	clock *refClock
}

func (p lapPolicy) PlaceDLT(now sim.Time, s *dlsim.State) {
	p.Policy.PlaceDLT(now, s)
	p.clock.lapIfDue()
}
