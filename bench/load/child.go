package load

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// Child is one netmarkd process under test.
type Child struct {
	cmd   *exec.Cmd
	out   bytes.Buffer
	done  chan error
	Base  string   // http://127.0.0.1:port
	Flags []string // the flags it was started with, for the environment record
	// Ready is how long exec-to-first-200-from-/readyz took.
	Ready time.Duration
}

// freePort asks the kernel for an unused loopback port.  netmarkd
// -addr :0 does not report what it bound, so the generator picks.
func freePort() (int, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer ln.Close()
	return ln.Addr().(*net.TCPAddr).Port, nil
}

// readyPoll is the /readyz polling period.
const readyPoll = 5 * time.Millisecond

// StartChild execs netmarkd on dir and returns once /readyz answers
// 200.  Another process can take the chosen port between the probe and
// the bind; the start is retried on a fresh port when the child dies
// before becoming ready.
func StartChild(bin, dir string, gomaxprocs int, extra ...string) (*Child, error) {
	var last error
	for attempt := 0; attempt < 3; attempt++ {
		c, err := startChildOnce(bin, dir, gomaxprocs, extra)
		if err == nil {
			return c, nil
		}
		last = err
	}
	return nil, last
}

func startChildOnce(bin, dir string, gomaxprocs int, extra []string) (*Child, error) {
	port, err := freePort()
	if err != nil {
		return nil, err
	}
	addr := "127.0.0.1:" + strconv.Itoa(port)
	flags := append([]string{"-addr", addr, "-dir", dir}, extra...)
	c := &Child{Base: "http://" + addr, Flags: flags, done: make(chan error, 1)}
	c.cmd = exec.Command(bin, flags...)
	c.cmd.Env = append(os.Environ(), "GOMAXPROCS="+strconv.Itoa(gomaxprocs))
	c.cmd.Stdout = &c.out
	c.cmd.Stderr = &c.out
	start := time.Now()
	if err := c.cmd.Start(); err != nil {
		return nil, fmt.Errorf("start netmarkd: %w", err)
	}
	go func() { c.done <- c.cmd.Wait() }()
	// No keep-alive: until the listener is up every attempt is refused.
	probe := &http.Client{Transport: &http.Transport{DisableKeepAlives: true}, Timeout: time.Second}
	for {
		resp, err := probe.Get(c.Base + "/readyz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				c.Ready = time.Since(start)
				return c, nil
			}
		}
		select {
		case werr := <-c.done:
			return nil, fmt.Errorf("netmarkd exited before ready: %v\n%s", werr, c.out.String())
		case <-time.After(readyPoll):
		}
		if time.Since(start) > 60*time.Second {
			c.cmd.Process.Kill()
			<-c.done
			return nil, fmt.Errorf("netmarkd not ready after 60s\n%s", c.out.String())
		}
	}
}

// Stop sends SIGTERM and waits for the process to end, killing it
// after a minute.  clean reports a zero exit status and the daemon's
// own "shut down cleanly" line, i.e. the closing checkpoint completed.
func (c *Child) Stop() (clean bool) {
	c.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case err := <-c.done:
		return err == nil && strings.Contains(c.out.String(), "shut down cleanly")
	case <-time.After(time.Minute):
		c.cmd.Process.Kill()
		<-c.done
		return false
	}
}

// Output is what the child has written to stdout and stderr.
func (c *Child) Output() string { return c.out.String() }

// VmHWM is the child's peak resident set in MiB.
func (c *Child) VmHWM() (float64, error) {
	f, err := os.Open(filepath.Join("/proc", strconv.Itoa(c.cmd.Process.Pid), "status"))
	if err != nil {
		return 0, err
	}
	defer f.Close()
	return ParseVmHWM(f)
}

// ParseVmHWM reads the "VmHWM:  12345 kB" line of a /proc/<pid>/status
// file and returns it in MiB.
func ParseVmHWM(r io.Reader) (float64, error) {
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) == 3 && fields[0] == "VmHWM:" && fields[2] == "kB" {
			kb, err := strconv.ParseFloat(fields[1], 64)
			if err != nil {
				return 0, fmt.Errorf("VmHWM: %w", err)
			}
			return kb / 1024, nil
		}
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	return 0, fmt.Errorf("no VmHWM line")
}

// DirBytes sums the sizes of the regular files directly in dir.
func DirBytes(dir string) (int64, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return 0, err
	}
	var n int64
	for _, e := range entries {
		info, err := e.Info()
		if err != nil {
			return 0, err
		}
		if info.Mode().IsRegular() {
			n += info.Size()
		}
	}
	return n, nil
}
