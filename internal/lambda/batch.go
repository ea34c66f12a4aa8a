package lambda

// Cause says why a batch dispatched.
type Cause uint8

// Dispatch causes reported by Batcher.Add (CauseNone: the batch stays open)
// and by a due batch (CauseTimeout).
const (
	CauseNone      Cause = iota
	CauseSize            // the batch reached B
	CauseTimeout         // the batch's window [t0, t0+T) closed
	CauseImmediate       // B = 1 or T = 0: dispatched on arrival, no buffering
)

// Batcher is the count-or-timeout buffer of the paper, defined once for
// every path that batches: qsim's simulator (and therefore the surrogate's
// labels and the ground-truth oracle) and the gateway's shards. The rule:
//
//   - A batch opens at its first arrival t0, under the configuration
//     active at that moment; later reconfigurations apply to the next batch.
//   - It dispatches on its B-th arrival (CauseSize) or at t0+T
//     (CauseTimeout), whichever comes first.
//   - Its window is [t0, t0+T): an arrival at exactly t0+T belongs to the
//     next batch.
//   - With B = 1 or T = 0 every arrival dispatches on arrival
//     (CauseImmediate).
//
// Batcher is a clock-free state machine: callers pass timestamps in and it
// never reads a clock, holds no lock and stores no items (the caller keeps
// the batch's members; Add's count is the batch size). Before admitting an
// arrival at t, callers dispatch the open batch if it is Due(t); a
// virtual-clock driver does so by flushing every deadline at or before t
// first. The zero value is an empty buffer.
//
// H is the handle the batch captures with its configuration when it opens,
// returned by Take: qsim keeps the Config itself, the gateway its
// pre-rendered serving configuration.
type Batcher[H any] struct {
	h        H
	size     int     // B of the open batch
	n        int     // arrivals in the open batch; 0 = no batch open
	deadline float64 // t0 + T of the open batch
}

// Add admits an arrival at t, which must not find the open batch Due. When
// it opens a batch, the batch captures cfg and its handle h; joining an open
// batch ignores both. It returns CauseNone while the batch stays open, else
// the cause of dispatching it now, arrival included: the caller then Takes
// the batch.
func (b *Batcher[H]) Add(t float64, cfg Config, h H) Cause {
	if b.n == 0 {
		b.h, b.size, b.deadline = h, cfg.BatchSize, t+cfg.TimeoutS
		if cfg.BatchSize <= 1 || cfg.TimeoutS <= 0 {
			b.n = 1
			return CauseImmediate
		}
	}
	b.n++
	if b.n >= b.size {
		return CauseSize
	}
	return CauseNone
}

// Due reports whether the open batch's window has closed by time t
// (t0+T <= t): it must dispatch with CauseTimeout before an arrival at t is
// admitted.
func (b *Batcher[H]) Due(t float64) bool { return b.n > 0 && b.deadline <= t }

// Deadline returns the open batch's timeout instant t0+T, and false when no
// batch is open.
func (b *Batcher[H]) Deadline() (float64, bool) { return b.deadline, b.n > 0 }

// Take closes the open batch and returns the handle it captured and its
// number of arrivals (0 when none was open).
func (b *Batcher[H]) Take() (H, int) {
	h, n := b.h, b.n
	var zero H
	b.h, b.n = zero, 0
	return h, n
}
