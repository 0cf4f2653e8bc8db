package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strings"
	"syscall"
)

// hostFacts describe what a result was measured on. Results whose
// facts differ (other than the seed) are not comparable: the same
// kernel row can read 2x apart on two hosts.
type hostFacts struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Workers    int    `json:"workers"`
	GoVersion  string `json:"go_version"`
	CPU        string `json:"cpu"`
	WALFS      string `json:"wal_fs"`
	Seed       int64  `json:"seed"`
}

func collectHost(workers int, walDir string, seed int64) hostFacts {
	return hostFacts{
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Workers:    workers,
		GoVersion:  runtime.Version(),
		CPU:        cpuModel(),
		WALFS:      fsType(walDir),
		Seed:       seed,
	}
}

// mismatch names the first fact (other than the seed) on which two
// hosts differ, or "" when results from them may be compared.
func (h hostFacts) mismatch(o hostFacts) string {
	switch {
	case h.NProc != o.NProc:
		return "nproc"
	case h.GOMAXPROCS != o.GOMAXPROCS:
		return "gomaxprocs"
	case h.Workers != o.Workers:
		return "workers"
	case h.GoVersion != o.GoVersion:
		return "go_version"
	case h.CPU != o.CPU:
		return "cpu"
	case h.WALFS != o.WALFS:
		return "wal_fs"
	}
	return ""
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

// fsMagic names the statfs magic numbers of common Linux filesystems.
var fsMagic = map[int64]string{
	0xEF53:     "ext4",
	0x58465342: "xfs",
	0x9123683E: "btrfs",
	0x01021994: "tmpfs",
	0x794C7630: "overlayfs",
	0x6969:     "nfs",
	0x65735546: "fuse",
	0x2FC12FC1: "zfs",
	0x5346544E: "ntfs",
	0xF2F52010: "f2fs",
}

func fsType(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	if name, ok := fsMagic[int64(st.Type)]; ok {
		return name
	}
	return fmt.Sprintf("0x%x", st.Type)
}

// result is the full record of one run, written beside the one-line
// summary so two runs can be compared later.
type result struct {
	Workload  string            `json:"workload"`
	Trace     bool              `json:"trace"`
	Host      hostFacts         `json:"host"`
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
	Notes     []string          `json:"notes,omitempty"`
}

// compareResults prints each metric of two saved results side by side.
// It refuses (error) when the results come from different workloads or
// from hosts whose facts differ.
func compareResults(oldPath, newPath string) error {
	var a, b result
	for _, x := range []struct {
		path string
		r    *result
	}{{oldPath, &a}, {newPath, &b}} {
		data, err := os.ReadFile(x.path)
		if err != nil {
			return err
		}
		if err := json.Unmarshal(data, x.r); err != nil {
			return fmt.Errorf("%s: %w", x.path, err)
		}
	}
	if a.Workload != b.Workload || a.Trace != b.Trace {
		return fmt.Errorf("results are from different runs: %s (trace %v) vs %s (trace %v)", a.Workload, a.Trace, b.Workload, b.Trace)
	}
	if f := a.Host.mismatch(b.Host); f != "" {
		return fmt.Errorf("refusing to compare: host fact %q differs (%+v vs %+v)", f, a.Host, b.Host)
	}
	names := make([]string, 0, len(a.Metrics))
	for k := range a.Metrics {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		ma, mb := a.Metrics[k], b.Metrics[k]
		change := "n/a"
		if ma.Value != 0 {
			change = fmt.Sprintf("%+.1f%%", 100*(mb.Value/ma.Value-1))
		}
		fmt.Printf("%-28s %14.4f %14.4f %-6s %s\n", k, ma.Value, mb.Value, ma.Unit, change)
	}
	return nil
}
