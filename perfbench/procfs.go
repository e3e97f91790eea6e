package main

import (
	"bufio"
	"fmt"
	"os"
	"strconv"
	"strings"
)

// clockTicks is USER_HZ, the unit of the CPU times in /proc; Linux fixes it
// at 100 on every architecture this benchmark runs on.
const clockTicks = 100

// parseProcCPU returns utime+stime, in clock ticks, from the contents of
// /proc/<pid>/stat. The command name (field 2) may hold spaces and
// parentheses, so fields are counted from the last ')'.
func parseProcCPU(stat string) (int64, error) {
	i := strings.LastIndexByte(stat, ')')
	if i < 0 {
		return 0, fmt.Errorf("proc stat: no ')' after the command name")
	}
	f := strings.Fields(stat[i+1:])
	// f[0] is field 3 (state); utime and stime are fields 14 and 15.
	if len(f) < 13 {
		return 0, fmt.Errorf("proc stat: %d fields after the command name, want at least 13", len(f))
	}
	utime, err := strconv.ParseInt(f[11], 10, 64)
	if err != nil {
		return 0, fmt.Errorf("proc stat utime: %w", err)
	}
	stime, err := strconv.ParseInt(f[12], 10, 64)
	if err != nil {
		return 0, fmt.Errorf("proc stat stime: %w", err)
	}
	return utime + stime, nil
}

// parseStatusKB returns a "Name:   123 kB" field of /proc/<pid>/status.
func parseStatusKB(status, name string) (int64, error) {
	sc := bufio.NewScanner(strings.NewReader(status))
	for sc.Scan() {
		k, v, ok := strings.Cut(sc.Text(), ":")
		if !ok || k != name {
			continue
		}
		f := strings.Fields(v)
		if len(f) != 2 || f[1] != "kB" {
			return 0, fmt.Errorf("proc status %s: unexpected value %q", name, v)
		}
		return strconv.ParseInt(f[0], 10, 64)
	}
	return 0, fmt.Errorf("proc status: no %s field", name)
}

// hostCPU is the machine-wide CPU time of /proc/stat's "cpu" line, in
// clock ticks: total over user..steal, and steal alone.
type hostCPU struct {
	total, steal uint64
}

// parseHostCPU reads the aggregate "cpu" line of /proc/stat. Guest time is
// already counted in user time, so only the first eight fields are summed.
func parseHostCPU(stat string) (hostCPU, error) {
	line, _, _ := strings.Cut(stat, "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return hostCPU{}, fmt.Errorf("proc stat: first line %q is not the aggregate cpu line", line)
	}
	var h hostCPU
	for i := 1; i <= 8; i++ {
		v, err := strconv.ParseUint(f[i], 10, 64)
		if err != nil {
			return hostCPU{}, fmt.Errorf("proc stat cpu field %d: %w", i, err)
		}
		h.total += v
		if i == 8 {
			h.steal = v
		}
	}
	return h, nil
}

// stealShare is the share of host CPU time stolen by the hypervisor between
// two readings.
func stealShare(a, b hostCPU) float64 {
	if b.total <= a.total {
		return 0
	}
	return float64(b.steal-a.steal) / float64(b.total-a.total)
}

// parseCPUModel returns the first "model name" of /proc/cpuinfo.
func parseCPUModel(cpuinfo string) string {
	sc := bufio.NewScanner(strings.NewReader(cpuinfo))
	for sc.Scan() {
		k, v, ok := strings.Cut(sc.Text(), ":")
		if ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

func readFile(path string) (string, error) {
	b, err := os.ReadFile(path)
	return string(b), err
}

// processCPU returns a process's utime+stime in seconds.
func processCPU(pid int) (float64, error) {
	s, err := readFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	ticks, err := parseProcCPU(s)
	return float64(ticks) / clockTicks, err
}

// processHWM returns a process's peak resident set (VmHWM) in MB.
func processHWM(pid int) (float64, error) {
	s, err := readFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	kb, err := parseStatusKB(s, "VmHWM")
	return float64(kb) / 1024, err
}

func readHostCPU() (hostCPU, error) {
	s, err := readFile("/proc/stat")
	if err != nil {
		return hostCPU{}, err
	}
	return parseHostCPU(s)
}
