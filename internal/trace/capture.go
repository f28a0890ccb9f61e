package trace

import (
	"errors"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
)

// Capture starts what a command-line binary's -trace, -trace-summary,
// -cpuprofile and -memprofile flags ask for, and returns the one stop function
// that finishes all of it; defer the stop in main. It installs a fresh default
// tracer whose stop writes Chrome trace_event JSON to chromePath (skipped when
// empty) and the stage-tree summary to summaryW (skipped when nil); when both
// are off no tracer is installed, so the binary keeps the zero-overhead
// disabled path. A cpuPath starts CPU profiling now, and a memPath schedules a
// heap profile at stop (`go tool pprof <binary> <profile>` reads either).
// Every path left empty is skipped.
func Capture(chromePath string, summaryW io.Writer, cpuPath, memPath string) (stop func() error, err error) {
	var cpuFile *os.File
	if cpuPath != "" {
		if cpuFile, err = os.Create(cpuPath); err != nil {
			return nil, fmt.Errorf("trace: %w", err)
		}
		if err := pprof.StartCPUProfile(cpuFile); err != nil {
			cpuFile.Close()
			return nil, fmt.Errorf("trace: %w", err)
		}
	}
	var t *Tracer
	if chromePath != "" || summaryW != nil {
		t = New()
		SetDefault(t)
	}
	return func() error {
		var errs []error
		if t != nil {
			SetDefault(nil)
			errs = append(errs, t.write(chromePath, summaryW))
		}
		if cpuFile != nil {
			pprof.StopCPUProfile()
			errs = append(errs, cpuFile.Close())
		}
		if memPath != "" {
			errs = append(errs, writeHeapProfile(memPath))
		}
		if err := errors.Join(errs...); err != nil {
			return fmt.Errorf("trace: %w", err)
		}
		return nil
	}, nil
}

// write writes the collected trace to chromePath and summaryW, each skipped
// when empty or nil.
func (t *Tracer) write(chromePath string, summaryW io.Writer) error {
	if chromePath != "" {
		f, err := os.Create(chromePath)
		if err != nil {
			return err
		}
		if err := t.WriteChromeTrace(f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
	}
	if summaryW != nil {
		return t.WriteSummary(summaryW)
	}
	return nil
}

// writeHeapProfile writes a heap profile to path.
func writeHeapProfile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	runtime.GC() // settle live-heap accounting before the snapshot
	return pprof.WriteHeapProfile(f)
}
