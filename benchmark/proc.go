package main

import (
	"bufio"
	"context"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
	"unsafe"
)

// procs owns every child process of a run. Each child leads its own
// process group and is killed — group and all — on every exit path:
// killAll is deferred by the run, called by the signal handler, and the
// kernel delivers SIGKILL itself if the generator dies first (Pdeathsig).
type procs struct {
	logDir string

	mu       sync.Mutex
	children []*daemon
}

// daemon is one spawned kspotd.
type daemon struct {
	cmd     *exec.Cmd
	pid     int
	started time.Time     // just before exec
	ready   time.Time     // when its ready line was read
	addr    string        // the address its ready line announced
	done    chan struct{} // closed once the process has been waited for
	killed  sync.Once
}

// placement is the share of the machine one daemon is given. The zero
// value is what a bare `kspotd` takes: GOMAXPROCS = nproc, any CPU.
type placement struct {
	threads int  // the child's GOMAXPROCS; 0 = the runtime's default
	pinned  bool // confine the child to one CPU
	cpu     int  // which, counted among the CPUs the generator may use, modulo their number
}

// spawn starts kspotd with args and waits for the ready line starting with
// prefix ("kspotd-http " or "kspotd-wire "): ports are only ever taken as
// :0 and read back from that line.
func (p *procs) spawn(ctx context.Context, bin, prefix string, pl placement, args ...string) (*daemon, error) {
	cmd := exec.Command(bin, args...)
	cmd.SysProcAttr = &syscall.SysProcAttr{Setpgid: true, Pdeathsig: syscall.SIGKILL}
	if pl.threads > 0 {
		cmd.Env = append(os.Environ(), fmt.Sprintf("GOMAXPROCS=%d", pl.threads))
	}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	p.mu.Lock()
	logPath := filepath.Join(p.logDir, fmt.Sprintf("kspotd-%d.log", len(p.children)))
	p.mu.Unlock()
	logFile, err := os.Create(logPath)
	if err != nil {
		return nil, err
	}
	defer logFile.Close() // the child holds its own descriptor
	cmd.Stderr = logFile

	d := &daemon{cmd: cmd, started: time.Now(), done: make(chan struct{})}
	if err := start(cmd, pl); err != nil {
		return nil, fmt.Errorf("exec %s: %w", bin, err)
	}
	d.pid = cmd.Process.Pid
	p.mu.Lock()
	p.children = append(p.children, d)
	p.mu.Unlock()

	lines := make(chan string, 1) // the one ready line
	go func() {
		sc := bufio.NewScanner(stdout)
		sent := false
		for sc.Scan() {
			if !sent && strings.HasPrefix(sc.Text(), prefix) {
				lines <- strings.TrimPrefix(sc.Text(), prefix)
				sent = true
			}
		}
		// Wait only after stdout is drained (os/exec's contract for pipes).
		_ = cmd.Wait()
		close(d.done)
	}()
	select {
	case d.addr = <-lines:
		d.ready = time.Now()
		return d, nil
	case <-d.done:
		tail, _ := os.ReadFile(logPath)
		return nil, fmt.Errorf("kspotd %v exited before its %q line: %s", args, strings.TrimSpace(prefix), lastLines(tail, 5))
	case <-ctx.Done():
		d.kill()
		return nil, fmt.Errorf("kspotd %v: no %q line: %w", args, strings.TrimSpace(prefix), ctx.Err())
	}
}

// cpuSet is a sched_setaffinity mask.
type cpuSet [16]uint64

func (s *cpuSet) call(nr uintptr) error {
	if _, _, errno := syscall.RawSyscall(nr, 0, unsafe.Sizeof(*s), uintptr(unsafe.Pointer(s))); errno != 0 {
		return errno
	}
	return nil
}

// start starts cmd where pl puts it. A child inherits the CPU mask of the
// thread that forks it and keeps it over exec, so for a pinned child the
// calling thread narrows its own mask for the length of the fork. A kernel
// that refuses the mask gets an unpinned child.
func start(cmd *exec.Cmd, pl placement) error {
	if !pl.pinned {
		return cmd.Start()
	}
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	var allowed, one cpuSet
	if allowed.call(syscall.SYS_SCHED_GETAFFINITY) != nil {
		return cmd.Start()
	}
	var cpus []int
	for i := 0; i < 64*len(allowed); i++ {
		if allowed[i/64]&(1<<(i%64)) != 0 {
			cpus = append(cpus, i)
		}
	}
	c := cpus[pl.cpu%len(cpus)]
	one[c/64] = 1 << (c % 64)
	if one.call(syscall.SYS_SCHED_SETAFFINITY) != nil {
		return cmd.Start()
	}
	defer allowed.call(syscall.SYS_SCHED_SETAFFINITY)
	return cmd.Start()
}

// kill SIGKILLs the daemon's process group and waits until it is gone.
func (d *daemon) kill() {
	d.killed.Do(func() {
		_ = syscall.Kill(-d.pid, syscall.SIGKILL) // ESRCH when it already exited
	})
	<-d.done
}

func (d *daemon) alive() bool {
	select {
	case <-d.done:
		return false
	default:
		return true
	}
}

// killAll kills every child still running and forgets them.
func (p *procs) killAll() {
	p.mu.Lock()
	children := p.children
	p.children = nil
	p.mu.Unlock()
	for _, d := range children {
		d.kill()
	}
}

func lastLines(b []byte, n int) string {
	lines := strings.Split(strings.TrimSpace(string(b)), "\n")
	if len(lines) > n {
		lines = lines[len(lines)-n:]
	}
	return strings.Join(lines, " | ")
}

// clockTick is the kernel's USER_HZ; Linux fixes it at 100 for every
// architecture Go runs on.
const clockTick = 100

// procCPU returns a process's utime+stime.
func procCPU(pid int) (time.Duration, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// The command name may hold spaces; fields are counted after its ")".
	rest := string(data)
	if i := strings.LastIndexByte(rest, ')'); i >= 0 {
		rest = rest[i+1:]
	}
	f := strings.Fields(rest)
	if len(f) < 13 {
		return 0, fmt.Errorf("/proc/%d/stat: short line", pid)
	}
	utime, err1 := strconv.ParseInt(f[11], 10, 64)
	stime, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("/proc/%d/stat: bad cpu fields", pid)
	}
	return time.Duration(utime+stime) * time.Second / clockTick, nil
}

// procStatus reads the peak resident set (KiB) and thread count.
func procStatus(pid int) (hwmKiB int64, threads int, err error) {
	f, err := os.Open(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) < 2 {
			continue
		}
		switch fields[0] {
		case "VmHWM:":
			hwmKiB, _ = strconv.ParseInt(fields[1], 10, 64)
		case "Threads:":
			threads, _ = strconv.Atoi(fields[1])
		}
	}
	return hwmKiB, threads, sc.Err()
}

// procFDs counts a process's open descriptors.
func procFDs(pid int) (int, error) {
	d, err := os.Open(fmt.Sprintf("/proc/%d/fd", pid))
	if err != nil {
		return 0, err
	}
	defer d.Close()
	names, err := d.Readdirnames(-1)
	if err != nil && err != io.EOF {
		return 0, err
	}
	return len(names), nil
}
