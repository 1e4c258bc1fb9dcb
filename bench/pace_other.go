//go:build !linux

package main

import "time"

func pause(d time.Duration) { time.Sleep(d) }
