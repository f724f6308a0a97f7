package wal

import (
	"os"
	"syscall"
)

// fallocate reserves [off, off+n) of f as zeros and extends its size
// to cover them (mode 0).
func fallocate(f *os.File, off, n int64) error {
	return ignoringEINTR(func() error { return syscall.Fallocate(int(f.Fd()), 0, off, n) })
}

// fdatasync flushes f's data, and only the metadata a later read needs.
func fdatasync(f *os.File) error {
	if err := ignoringEINTR(func() error { return syscall.Fdatasync(int(f.Fd())) }); err != nil {
		return &os.PathError{Op: "fdatasync", Path: f.Name(), Err: err}
	}
	return nil
}

func ignoringEINTR(fn func() error) error {
	for {
		if err := fn(); err != syscall.EINTR {
			return err
		}
	}
}
