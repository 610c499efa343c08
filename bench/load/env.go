package load

import (
	"bufio"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
)

// Env records where a run happened, so numbers from different machines
// are never compared by accident.
type Env struct {
	NProc           int
	GenGOMAXPROCS   int // the load generator's
	ChildGOMAXPROCS int // netmarkd's, set through its environment
	GoVersion       string
	CPUModel        string
	FSType          string // filesystem of the work directory
	Workload        string
	Seed            int64
	NetmarkdFlags   []string
}

// CurrentEnv fills in everything but the per-run fields.
func CurrentEnv(workDir string) Env {
	return Env{
		NProc:           runtime.NumCPU(),
		GenGOMAXPROCS:   runtime.GOMAXPROCS(0),
		ChildGOMAXPROCS: runtime.NumCPU(),
		GoVersion:       runtime.Version(),
		CPUModel:        cpuModel(),
		FSType:          fsType(workDir),
	}
}

func (e Env) String() string {
	return fmt.Sprintf("nproc=%d gen_gomaxprocs=%d netmarkd_gomaxprocs=%d go=%s cpu=%q fs=%s workload=%s seed=%d netmarkd_flags=%q",
		e.NProc, e.GenGOMAXPROCS, e.ChildGOMAXPROCS, e.GoVersion, e.CPUModel, e.FSType,
		e.Workload, e.Seed, strings.Join(e.NetmarkdFlags, " "))
}

// cpuModel is the first "model name" of /proc/cpuinfo.
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

// fsType is the filesystem type of the mount that holds dir: the
// longest mount point in /proc/mounts that prefixes it.
func fsType(dir string) string {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return "unknown"
	}
	f, err := os.Open("/proc/mounts")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	best, typ := "", "unknown"
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) < 3 {
			continue
		}
		mp := fields[1]
		if len(mp) >= len(best) && (abs == mp || mp == "/" || strings.HasPrefix(abs, mp+"/")) {
			best, typ = mp, fields[2]
		}
	}
	return typ
}

// Defaults fills in the netmarkd path and a private work directory,
// both relative to the running binary, which run.sh builds beside
// netmarkd under the checkout's .bench_build/.
func Defaults(o *Options, tool string) error {
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	if o.Netmarkd == "" {
		o.Netmarkd = filepath.Join(filepath.Dir(exe), "netmarkd")
	}
	if _, err := os.Stat(o.Netmarkd); err != nil {
		return fmt.Errorf("netmarkd binary: %w (build it with bench/run.sh or pass -netmarkd)", err)
	}
	if o.WorkDir == "" {
		o.WorkDir = filepath.Join(filepath.Dir(exe), "..", "work")
	}
	o.WorkDir = filepath.Join(o.WorkDir, fmt.Sprintf("%s-%d", tool, os.Getpid()))
	return os.MkdirAll(o.WorkDir, 0o755)
}

// Flags registers the options both commands take.
func Flags(o *Options) {
	flag.StringVar(&o.Workload, "workload", "", "serve_hot | serve_cold | ingest_bulk | mixed_rw")
	flag.Int64Var(&o.Seed, "seed", 1, "seed for the operation sequence; the documents are the same on every run")
	flag.Float64Var(&o.Seconds, "seconds", RunSeconds, "length of the measured phases")
	flag.IntVar(&o.Conns, "conns", 2, "load connections (at most nproc)")
	flag.StringVar(&o.Netmarkd, "netmarkd", "", "netmarkd binary (default: next to this one)")
	flag.StringVar(&o.WorkDir, "work", "", "directory for stores, on a real disk (default: work/ next to this binary)")
	flag.Float64Var(&o.Scale, "scale", 1, "corpus scale; anything but 1 is a smoke run")
}
