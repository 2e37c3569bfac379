package main

import (
	"slices"
	"sync"
	"time"
)

// The sandbox this benchmark runs in is a few cores of a shared host whose
// speed drifts by 20–60 % over minutes, and every timing of a run scales
// with it. A run therefore times a yardstick — a fixed piece of work that
// no change to the repository can touch — between its instances, while no
// daemon runs, and reports its end-to-end times at the speed at which the
// yardstick takes yardstickRefMs. See README.md, "Host speed".

// yardstickRefMs is what one unit of the yardstick takes on the reference
// host: the sandbox in a quiet hour. It only sets the scale of the reported
// times; comparisons between runs do not depend on it.
const yardstickRefMs = 1.60

// yardstickReps is how many units each thread times per reading.
const yardstickReps = 60

// yardstick holds one thread's buffers, so that a unit allocates nothing.
type yardstick struct {
	x    uint64
	buf  []uint64
	hist map[uint64]uint64
	sink uint64
}

func newYardstick(seed uint64) *yardstick {
	return &yardstick{x: seed | 1, buf: make([]uint64, 4096), hist: make(map[uint64]uint64, 4096)}
}

// unit is integer arithmetic, a sort and hash-map traffic over 32 KiB:
// what the daemon's loop is made of, in miniature.
func (y *yardstick) unit() {
	for round := 0; round < 6; round++ {
		for i := range y.buf {
			y.x ^= y.x << 13
			y.x ^= y.x >> 7
			y.x ^= y.x << 17
			y.buf[i] = y.x
		}
		slices.Sort(y.buf)
		for i := 0; i < 1024; i++ {
			y.hist[y.buf[4*i]&2047] += y.buf[i]
		}
		for k, v := range y.hist {
			y.sink += k ^ v
		}
	}
}

// readYardstick times the unit on every thread the generator has, all at
// once — the daemons keep every core busy too — and returns the median
// unit time in ms.
func readYardstick() float64 {
	var (
		wg    sync.WaitGroup
		mu    sync.Mutex
		units []float64
	)
	for g := 0; g < loadgenProcs(); g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			y := newYardstick(uint64(g))
			y.unit() // page the buffers in
			mine := make([]float64, 0, yardstickReps)
			for r := 0; r < yardstickReps; r++ {
				t := time.Now()
				y.unit()
				mine = append(mine, ms(time.Since(t)))
			}
			mu.Lock()
			units = append(units, mine...)
			mu.Unlock()
		}(g)
	}
	wg.Wait()
	return median(units)
}

// atReferenceSpeed converts a value measured while the host ran at speed
// (reference = 1, faster > 1) to what the reference host would have shown:
// times stretch, rates shrink, everything else is not a timing.
func atReferenceSpeed(v float64, unit string, speed float64) float64 {
	switch unit {
	case "s", "ms":
		return v * speed
	case "1/s":
		return v / speed
	}
	return v
}
