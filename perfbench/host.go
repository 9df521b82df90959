package main

import (
	"bufio"
	"os"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"syscall"
)

// hostInfo fingerprints the machine and build a result came from, so
// runs from different hardware are never compared as if they were one.
type hostInfo struct {
	CPUModel   string  `json:"cpu_model"`
	NProc      int     `json:"nproc"`
	CPUs       string  `json:"cpus_allowed"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go_version"`
	Commit     string  `json:"commit"`
	Workload   string  `json:"workload"`
	Seed       uint64  `json:"seed"`
	Seconds    float64 `json:"seconds"`
	Traced     bool    `json:"traced"`
	Network    string  `json:"network"`
}

func fingerprint(cfg config) hostInfo {
	return hostInfo{
		CPUModel:   cpuModel(),
		NProc:      onlineCPUs(),
		CPUs:       cpusAllowed(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Commit:     commit(),
		Workload:   cfg.workload,
		Seed:       cfg.seed,
		Seconds:    cfg.seconds,
		Traced:     cfg.trace,
		// Every wire byte of every workload crosses the host's loopback
		// interface, never a real link.
		Network: "loopback",
	}
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}

// onlineCPUs counts the machine's processors, whatever this process's
// affinity (runtime.NumCPU counts only the CPUs it may run on).
func onlineCPUs() int {
	raw, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return runtime.NumCPU()
	}
	n := 0
	for _, line := range strings.Split(string(raw), "\n") {
		if k, _, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "processor" {
			n++
		}
	}
	return max(n, 1)
}

// cpusAllowed is the list of CPUs this process, and every process it
// starts, may run on (run.sh pins them all to one).
func cpusAllowed() string {
	raw, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if rest, ok := strings.CutPrefix(line, "Cpus_allowed_list:"); ok {
			return strings.TrimSpace(rest)
		}
	}
	return "unknown"
}

// commit is the VCS revision stamped into the build, or "unknown" when
// the checkout carried no version control metadata.
func commit() string {
	info, ok := debug.ReadBuildInfo()
	if !ok {
		return "unknown"
	}
	rev, dirty := "", false
	for _, s := range info.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.modified":
			dirty = s.Value == "true"
		}
	}
	if rev == "" {
		return "unknown"
	}
	if dirty {
		rev += "+dirty"
	}
	return rev
}

// vmHWM reads a process's peak resident set size in MB from
// /proc/<pid>/status.
func vmHWM(pid int) (float64, error) {
	raw, err := os.ReadFile("/proc/" + strconv.Itoa(pid) + "/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, os.ErrNotExist
}

// selfPeakRSSMB is this process's peak resident set size in MB.
func selfPeakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KB
}
