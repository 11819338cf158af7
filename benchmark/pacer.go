//go:build linux

package main

import (
	"os"
	"syscall"
	"time"
	"unsafe"
)

// pacer sleeps until an open-loop request is due, precisely. time.Sleep
// parks the goroutine on the runtime's timers, which an otherwise idle Go
// process services from epoll_wait at millisecond granularity: sub-ms gaps
// overshoot by ~0.6 ms at the median — more than a cache hit takes — and
// an open loop timed from the due instant would report the sleep, not the
// server. nanosleep(2) is precise but pins the goroutine's P inside the
// syscall. A timerfd read through the netpoller is both: the goroutine
// parks, and epoll returns when the kernel's high-resolution timer fires
// (overshoot ~35 µs at the median on the reference box).
type pacer struct{ f *os.File }

// itimerspec mirrors struct itimerspec of timerfd_settime(2).
type itimerspec struct{ interval, value syscall.Timespec }

func newPacer() (*pacer, error) {
	const clockMonotonic, tfdNonblock, tfdCloexec = 1, 0o4000, 0o2000000
	fd, _, errno := syscall.Syscall(syscall.SYS_TIMERFD_CREATE, clockMonotonic, tfdNonblock|tfdCloexec, 0)
	if errno != 0 {
		return nil, os.NewSyscallError("timerfd_create", errno)
	}
	return &pacer{os.NewFile(fd, "timerfd")}, nil
}

func (p *pacer) close() { p.f.Close() }

// sleep blocks the calling goroutine for d (> 0).
func (p *pacer) sleep(d time.Duration) error {
	spec := itimerspec{value: syscall.NsecToTimespec(int64(d))}
	sc, err := p.f.SyscallConn()
	if err != nil {
		return err
	}
	var errno syscall.Errno
	if err := sc.Control(func(fd uintptr) {
		_, _, errno = syscall.Syscall6(syscall.SYS_TIMERFD_SETTIME, fd, 0, uintptr(unsafe.Pointer(&spec)), 0, 0, 0)
	}); err != nil {
		return err
	}
	if errno != 0 {
		return os.NewSyscallError("timerfd_settime", errno)
	}
	var expirations [8]byte
	_, err = p.f.Read(expirations[:])
	return err
}
