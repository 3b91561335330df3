package core

// HController implements the compression-ratio adjustment algorithm for
// B-SAG (Algorithm 2), which is modelled on TCP's congestion-window
// dynamics: the top-h selection size is adjusted by a signed step; while
// consecutive adjustments keep moving in the correct direction the step
// doubles (after one confirmation), and whenever the direction overshoots
// the step reverses and halves.
//
// h is kept inside [k/P, dk/P] (Section III-D): the bounds correspond to
// entirely non-overlapping and entirely overlapping selections across
// teams, respectively.
type HController struct {
	h    float64
	step float64
	flag bool
	lo   float64 // k/P
	hi   float64 // dk/P
	l    float64 // L(k,d,p) = dk/P, the target gradient count
}

// NewHController builds the controller for a cluster of p workers with d > 1
// teams and a global selection size k. Initial h = k/P and initial step =
// +0.01·k(d-1)/P, as in Algorithm 2.
func NewHController(p, d, k int) *HController {
	lo := float64(k) / float64(p)
	hi := float64(d) * float64(k) / float64(p)
	step := 0.01 * float64(k) * float64(d-1) / float64(p)
	return &HController{h: lo, step: step, lo: lo, hi: hi, l: hi}
}

// H returns the current selection size (at least 1).
func (c *HController) H() int {
	h := int(c.h + 0.5)
	if h < 1 {
		h = 1
	}
	return h
}

// Target returns L(k,d,p), the desired gradient count after B-SAG.
func (c *HController) Target() float64 { return c.l }

// Observe feeds the measured gradient count after the inter-team Bruck
// all-gather (N_t) and updates h per Algorithm 2. The direction is correct
// when the count exceeds the target and the step is negative (shrinking h),
// or vice versa — the XOR condition of line 3.
func (c *HController) Observe(nt int) {
	correct := (float64(nt) > c.l) != (c.step > 0)
	if correct {
		if c.flag {
			c.step *= 2
			c.flag = false
		} else {
			c.flag = true
		}
	} else {
		c.step = -c.step / 2
		c.flag = false
	}
	c.h += c.step
	if c.h < c.lo {
		c.h = c.lo
	}
	if c.h > c.hi {
		c.h = c.hi
	}
}
