//go:build !linux

package wal

import (
	"errors"
	"os"
)

// fallocate is Linux-only here: elsewhere every journal write grows
// the file.
func fallocate(*os.File, int64, int64) error { return errors.ErrUnsupported }

// fdatasync is a full fsync off Linux.
func fdatasync(f *os.File) error { return f.Sync() }
