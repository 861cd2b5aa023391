package main

import (
	"fmt"
	"os"
	"strconv"
	"strings"
)

// clockTick is USER_HZ, the unit of the CPU times in /proc: 100 on every
// Linux architecture Go supports (the kernel scales to it whatever its
// internal HZ), so it is a constant here rather than a sysconf call.
const clockTick = 100

// parseProcStatCPU extracts user+system CPU seconds from the text of
// /proc/<pid>/stat. The command name (field 2) may itself contain spaces
// and parentheses, so fields are counted from the last ')'.
func parseProcStatCPU(text string) (float64, error) {
	end := strings.LastIndexByte(text, ')')
	if end < 0 {
		return 0, fmt.Errorf("proc stat: no command field in %q", text)
	}
	f := strings.Fields(text[end+1:])
	// f[0] is field 3 (state); utime and stime are fields 14 and 15.
	if len(f) < 13 {
		return 0, fmt.Errorf("proc stat: %d fields after the command, want at least 13", len(f))
	}
	utime, err1 := strconv.ParseUint(f[11], 10, 64)
	stime, err2 := strconv.ParseUint(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("proc stat: utime %q stime %q", f[11], f[12])
	}
	return float64(utime+stime) / clockTick, nil
}

// parseVmHWM extracts the peak resident set size in MiB from the text of
// /proc/<pid>/status.
func parseVmHWM(text string) (float64, error) {
	for _, line := range strings.Split(text, "\n") {
		rest, ok := strings.CutPrefix(line, "VmHWM:")
		if !ok {
			continue
		}
		f := strings.Fields(rest)
		if len(f) != 2 || f[1] != "kB" {
			return 0, fmt.Errorf("proc status: malformed VmHWM line %q", line)
		}
		kb, err := strconv.ParseUint(f[0], 10, 64)
		if err != nil {
			return 0, fmt.Errorf("proc status: VmHWM %q", f[0])
		}
		return float64(kb) / 1024, nil
	}
	return 0, fmt.Errorf("proc status: no VmHWM line")
}

// parseHostCPU extracts the aggregate "cpu" line of /proc/stat: total and
// steal jiffies over all CPUs.
func parseHostCPU(text string) (total, steal float64, err error) {
	line, _, _ := strings.Cut(text, "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0, 0, fmt.Errorf("proc stat: malformed cpu line %q", line)
	}
	for i, s := range f[1:] {
		v, perr := strconv.ParseUint(s, 10, 64)
		if perr != nil {
			return 0, 0, fmt.Errorf("proc stat: cpu field %q", s)
		}
		// guest and guest_nice (fields 9, 10) are already inside user/nice.
		if i < 8 {
			total += float64(v)
		}
		if i == 7 {
			steal = float64(v)
		}
	}
	return total, steal, nil
}

func readProcCPU(pid string) (float64, error) {
	data, err := os.ReadFile("/proc/" + pid + "/stat")
	if err != nil {
		return 0, err
	}
	return parseProcStatCPU(string(data))
}

func readVmHWM(pid string) (float64, error) {
	data, err := os.ReadFile("/proc/" + pid + "/status")
	if err != nil {
		return 0, err
	}
	return parseVmHWM(string(data))
}

func readHostCPU() (total, steal float64, err error) {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0, err
	}
	return parseHostCPU(string(data))
}
