package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
)

// fingerprint names the machine a run was measured on, so wall times
// are compared only like for like.
func fingerprint() string {
	return fmt.Sprintf("cpu=%q nproc=%d gomaxprocs=%d go=%s %s/%s",
		cpuModel(), runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), runtime.GOOS, runtime.GOARCH)
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// runqueueWaitNs sums, over the process's threads, the time they spent
// runnable but waiting for a CPU (the second field of schedstat). A
// jump in it during a timed phase means the machine, not the program,
// was slow. Zero where the kernel does not expose it.
func runqueueWaitNs() int64 {
	paths, _ := filepath.Glob("/proc/self/task/*/schedstat")
	var total int64
	for _, p := range paths {
		b, err := os.ReadFile(p)
		if err != nil {
			continue // the thread exited between Glob and ReadFile
		}
		if f := strings.Fields(string(b)); len(f) >= 2 {
			if ns, err := strconv.ParseInt(f[1], 10, 64); err == nil {
				total += ns
			}
		}
	}
	return total
}

// stealSeconds is the machine-wide CPU time the hypervisor gave to other
// guests (the steal column of /proc/stat, in USER_HZ = 100 ticks per
// second). Zero where the kernel does not expose it.
func stealSeconds() float64 {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0
	}
	ticks, err := strconv.ParseInt(f[8], 10, 64)
	if err != nil {
		return 0
	}
	return float64(ticks) / 100
}
