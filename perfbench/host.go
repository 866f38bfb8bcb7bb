package main

import (
	"runtime"
	"sort"
	"syscall"
	"time"
	"unsafe"
)

// The machine this benchmark runs on is shared: other guests on the
// same host take cores, caches and memory bandwidth, and how much they
// take changes from minute to minute. On such a host the same program
// on the same inputs ran raw queries at a p50 of under 5 ms in one
// hour and over 12 ms in the next, and its CPU time per op moved as
// much as its wall time, so the slowdown is the host's, not a queue
// inside the program.
//
// To keep that out of the end-to-end timings, each segment of the
// measured window is cut into short slices, and between slices, with
// every op finished and the program idle, the benchmark times a fixed
// reference kernel of its own (refKernel). A segment's op latencies
// and CPU time are then scaled by refNominal over the median of the
// kernel's times taken during it: they read as what they would have
// been on a host where the kernel takes refNominal. The kernel is
// benchmark code, so a change to the program under test cannot make it
// faster or slower; a program that gets 10% slower still reads 10%
// slower.

// refNominal is about the reference kernel's time, wall and thread CPU
// alike, on a 2-vCPU Intel Xeon (Sapphire Rapids) KVM guest whose host
// is idle: 2.3 to 2.4 ms, worked out from the times of its parts
// measured on such a guest. It only sets the scale of the normalised
// figures.
const refNominal = 2350 * time.Microsecond

// refReps is how many times one host sample times the kernel, after
// one untimed run that brings its tables back into the caches the
// program's ops have just used; the sample is the median, so an
// interruption that lands on one run does not move it.
const refReps = 3

// hostSpeed is one host sample: the reference kernel's median wall
// time and median CPU time of the thread that ran it.
type hostSpeed struct {
	wall, cpu time.Duration
}

// mean is the average of two host samples.
func (h hostSpeed) mean(o hostSpeed) hostSpeed {
	return hostSpeed{(h.wall + o.wall) / 2, (h.cpu + o.cpu) / 2}
}

// wallScale and cpuScale turn a wall or CPU duration measured at this
// host speed into one at the nominal speed.
func (h hostSpeed) wallScale() float64 { return float64(refNominal) / float64(h.wall) }
func (h hostSpeed) cpuScale() float64  { return float64(refNominal) / float64(h.cpu) }

// refKernel is a fixed piece of work: it evaluates a random expression
// DAG, bitwise and arithmetically, over refInputs inputs and probes a
// hash map with the results, the integer, branch and L1/L2 work that
// the simplifier's signatures and the SAT solver's propagation consist
// of. A run allocates nothing, so how much garbage the program under
// test left behind, and where its garbage collector stands, cannot
// change its time. Its inputs are constants.
//
// A random walk over a 4 MiB table, tried as a third part to follow
// contention in the shared L3, slowed up to 3.8 times on a busy host
// while the workloads slowed 2.0 to 2.5 times, and moved more from
// sample to sample than anything else; the DAG slowed about 1.8 times
// and followed the workloads' ups and downs within a busy hour best.
type refKernel struct {
	dag   []refNode
	vals  []uint64
	probe map[uint64]int32
	sink  uint64 // keeps the kernel's result alive so its work is not dropped
}

type refNode struct {
	op   uint8
	l, r uint16
}

const (
	refLeaves  = 16
	refNodes   = 2048
	refInputs  = 512
	refMapKeys = 4096
)

func newRefKernel() *refKernel {
	state := uint64(0x5eed)
	k := &refKernel{
		dag:   make([]refNode, refNodes),
		vals:  make([]uint64, refNodes),
		probe: make(map[uint64]int32, refMapKeys),
	}
	for i := refLeaves; i < refNodes; i++ {
		r := splitmix(&state)
		k.dag[i] = refNode{op: uint8(r % 6), l: uint16((r >> 8) % uint64(i)), r: uint16((r >> 32) % uint64(i))}
	}
	for key := uint64(0); key < refMapKeys; key++ {
		k.probe[key] = int32(splitmix(&state))
	}
	return k
}

// sample times the kernel refReps times on a locked OS thread, after
// one untimed run, and returns the medians.
func (k *refKernel) sample() hostSpeed {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	walls := make([]time.Duration, refReps)
	cpus := make([]time.Duration, refReps)
	k.run()
	for i := range walls {
		c0, w0 := threadCPU(), time.Now()
		k.run()
		walls[i], cpus[i] = time.Since(w0), threadCPU()-c0
	}
	return hostSpeed{medianDur(walls), medianDur(cpus)}
}

func (k *refKernel) run() {
	var sum uint64
	vals := k.vals
	for x := uint64(0); x < refInputs; x++ {
		for i := range refLeaves {
			vals[i] = x*0x9e3779b97f4a7c15 ^ uint64(i)*0xff51afd7ed558ccd
		}
		for i := refLeaves; i < len(k.dag); i++ {
			n := k.dag[i]
			a, b := vals[n.l], vals[n.r]
			switch n.op {
			case 0:
				vals[i] = a + b
			case 1:
				vals[i] = a - b
			case 2:
				vals[i] = a * b
			case 3:
				vals[i] = a & b
			case 4:
				vals[i] = a | b
			default:
				vals[i] = a ^ ^b
			}
		}
		sum += uint64(k.probe[vals[len(vals)-1]&(refMapKeys-1)])
		for _, v := range vals[len(vals)-64:] {
			sum += uint64(k.probe[v&(refMapKeys-1)])
		}
	}
	k.sink += sum
}

// threadCPU is the CPU time of the calling OS thread. That clock
// always exists on Linux, so clock_gettime cannot fail here.
func threadCPU() time.Duration {
	var ts syscall.Timespec
	const clockThreadCPUTimeID = 3
	_, _, _ = syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockThreadCPUTimeID, uintptr(unsafe.Pointer(&ts)), 0)
	return time.Duration(ts.Nano())
}

func medianDur(ds []time.Duration) time.Duration {
	s := append([]time.Duration(nil), ds...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return s[len(s)/2]
}
