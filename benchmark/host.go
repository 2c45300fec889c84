package main

import (
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"
)

// rulerIters sizes the ruler loop to about 125 ms on the machine the
// benchmark was written on. It is a constant, not a calibration: the
// point is that the same work takes longer when the host is slow.
const rulerIters = 64_000_000

var rulerSink uint64

// ruler times a fixed xorshift loop over an 8 KiB (L1-resident)
// table. It touches no memory the program under test owns, so a slow
// ruler means a slow machine, not slow code.
func ruler(iters int) time.Duration {
	var table [1024]uint64
	x := uint64(88172645463325252)
	t0 := time.Now()
	for i := 0; i < iters; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		table[x&1023] += x
	}
	d := time.Since(t0)
	rulerSink += table[x&1023]
	return d
}

// fsyncProbe times one 256-byte append plus fsync on f, the cost the
// journal pays per record.
func fsyncProbe(f *os.File) (time.Duration, error) {
	var buf [256]byte
	t0 := time.Now()
	if _, err := f.Write(buf[:]); err != nil {
		return 0, err
	}
	if err := f.Sync(); err != nil {
		return 0, err
	}
	return time.Since(t0), nil
}

// hostNoise interleaves the ruler and the fsync probe with the passes.
// It is a diagnostic: its samples are printed next to the numbers a
// slow phase of the machine may have polluted, and never used to
// rescale or drop one.
type hostNoise struct {
	dir     string // on the filesystem the journal writes to
	iters   int
	probe   *os.File
	rulerMS []float64
	fsyncUS []float64
	cpu0    cpuTicks // when the watch began
}

func newHostNoise(cfg config) *hostNoise {
	return &hostNoise{dir: cfg.outDir, iters: cfg.rulerIters(), cpu0: readCPUTicks()}
}

// cpuTicks is the machine's cumulative CPU time from the first line of
// /proc/stat: all of it, and the part the hypervisor ran other guests
// in while this one had work to do. Both are 0 where there is no such
// file.
type cpuTicks struct{ total, steal float64 }

func readCPUTicks() cpuTicks {
	data, _ := os.ReadFile("/proc/stat") // absent off Linux: the note then reads 0
	line, _, _ := strings.Cut(string(data), "\n")
	fields := strings.Fields(line) // cpu user nice system idle iowait irq softirq steal ...
	var t cpuTicks
	for i, f := range fields {
		if v, err := strconv.ParseFloat(f, 64); err == nil && i >= 1 && i <= 8 {
			t.total += v
			if i == 8 {
				t.steal = v
			}
		}
	}
	return t
}

func (h *hostNoise) sample() error {
	h.rulerMS = append(h.rulerMS, millis(ruler(h.iters)))
	if h.probe == nil {
		if err := os.MkdirAll(h.dir, 0o755); err != nil {
			return err
		}
		f, err := os.CreateTemp(h.dir, "fsync-probe-*")
		if err != nil {
			return err
		}
		h.probe = f
		// The first fsync of a new file also commits its creation;
		// the journal appends to a file that already exists.
		if _, err := fsyncProbe(f); err != nil {
			return fmt.Errorf("fsync probe: %w", err)
		}
	}
	d, err := fsyncProbe(h.probe)
	if err != nil {
		return fmt.Errorf("fsync probe: %w", err)
	}
	h.fsyncUS = append(h.fsyncUS, micros(d))
	return nil
}

// close removes the probe file.
func (h *hostNoise) close() {
	if h.probe != nil {
		h.probe.Close()
		os.Remove(h.probe.Name())
	}
}

func (h *hostNoise) note(r *report) {
	rl, rh := minMax(h.rulerMS)
	fl, fh := minMax(h.fsyncUS)
	now, stolen := readCPUTicks(), 0.0
	if d := now.total - h.cpu0.total; d > 0 {
		stolen = 100 * (now.steal - h.cpu0.steal) / d
	}
	r.notef("host.ruler_ms min/median/max %.1f/%.1f/%.1f   host.fsync_us min/median/max %.0f/%.0f/%.0f   (%d samples, between passes)   CPU stolen by the hypervisor %.1f%%",
		rl, median(h.rulerMS), rh, fl, median(h.fsyncUS), fh, len(h.rulerMS), stolen)
}
