package main

import (
	"syscall"
	"time"
)

// pause blocks for d in the kernel. time.Sleep on an idle process
// wakes through the network poller, whose timeout has millisecond
// granularity: it returned a median 0.54 ms late here, ten times a
// cache hit's whole latency, where nanosleep returns about 0.1 ms late.
func pause(d time.Duration) {
	ts := syscall.NsecToTimespec(int64(d))
	_ = syscall.Nanosleep(&ts, nil) // a signal ends the sleep early with EINTR; the caller sleeps again until the due time
}
