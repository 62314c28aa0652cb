package main

import (
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
)

// hostInfo is the fingerprint printed with every result: host-time numbers
// mean nothing without it.
type hostInfo struct {
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go_version"`
	CPUModel   string  `json:"cpu_model"`
	Load1      float64 `json:"load1"` // 1-minute load average at start
}

func readHost() hostInfo {
	h := hostInfo{
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		CPUModel:   "unknown",
		Load1:      -1,
	}
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				h.CPUModel = strings.TrimSpace(v)
				break
			}
		}
	}
	if data, err := os.ReadFile("/proc/loadavg"); err == nil {
		if f := strings.Fields(string(data)); len(f) > 0 {
			if v, err := strconv.ParseFloat(f[0], 64); err == nil {
				h.Load1 = v
			}
		}
	}
	return h
}

func (h hostInfo) String() string {
	return fmt.Sprintf("host: nproc=%d GOMAXPROCS=%d %s cpu=%q load1=%.2f",
		h.NProc, h.GOMAXPROCS, h.GoVersion, h.CPUModel, h.Load1)
}

// busy reports whether the host was loaded enough at start to blur host-time
// numbers: more than half its processors already in use.
func (h hostInfo) busy() bool { return h.Load1 > 0.5*float64(h.NProc) }
