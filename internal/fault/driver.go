package fault

import (
	"errors"
	"fmt"
	"time"

	"dejavu/internal/ctl"
)

// Applier accepts unified control-plane table writes — satisfied by
// *ctl.Controller.
type Applier interface {
	Apply(ctl.TableWrite) error
}

// TransientError marks a retryable control-plane write failure: the
// switch driver timed out, the session dropped, the ack was lost.
type TransientError struct {
	Op  string
	Err error
}

// Error implements error.
func (e *TransientError) Error() string {
	return fmt.Sprintf("fault: transient failure applying %s: %v", e.Op, e.Err)
}

// Unwrap exposes the cause.
func (e *TransientError) Unwrap() error { return e.Err }

// IsTransient reports whether err is (or wraps) a retryable failure.
func IsTransient(err error) bool {
	var te *TransientError
	return errors.As(err, &te)
}

// writeKey identifies a logical write for idempotency tracking.
func writeKey(w ctl.TableWrite) string {
	return fmt.Sprintf("%s/%s/%v", w.NF, w.Table, w.Args)
}

// FlakyApplier injects scheduled control-plane write failures in front
// of a real Applier — the fallible "switch driver" the retry layer is
// written against. Ambiguous failures commit the write and then lose
// the acknowledgement; the shim remembers such writes (as a real
// driver's sequence numbers would) so a retry of the same logical
// write succeeds without applying it twice.
type FlakyApplier struct {
	Inner    Applier
	Injector *Injector

	acked map[string]bool
}

// NewFlakyApplier wraps an applier with the injector's scheduled
// table-write faults.
func NewFlakyApplier(inner Applier, inj *Injector) *FlakyApplier {
	return &FlakyApplier{Inner: inner, Injector: inj, acked: make(map[string]bool)}
}

// Apply implements Applier with injected failures.
func (f *FlakyApplier) Apply(w ctl.TableWrite) error {
	op := w.NF + "/" + w.Table
	key := writeKey(w)
	if fails, ambiguous := f.Injector.tableFaultFor(w.NF, w.Table); fails {
		if !ambiguous {
			return &TransientError{Op: op, Err: errors.New("write rejected by switch driver")}
		}
		// Ambiguous: the write commits, the ack is lost. A retry of a
		// write that already committed must not commit it again, even if
		// its ack is lost a second time.
		if !f.acked[key] {
			if err := f.Inner.Apply(w); err != nil {
				return err
			}
			f.acked[key] = true
		}
		return &TransientError{Op: op, Err: errors.New("ack lost after commit")}
	}
	if f.acked[key] {
		// Idempotent retry of a write that already committed under a
		// lost ack: acknowledge without re-applying.
		delete(f.acked, key)
		return nil
	}
	return f.Inner.Apply(w)
}

// DriverStats counts control-plane write activity through a Driver.
type DriverStats struct {
	Writes    int           `json:"writes"`   // logical writes attempted
	Retries   int           `json:"retries"`  // extra attempts beyond the first
	Failures  int           `json:"failures"` // writes that exhausted their retry budget or hit a permanent error
	BackedOff time.Duration `json:"backed_off_ns"`
}

// Driver is the resilient control-plane write path: bounded retry with
// exponential backoff over a fallible Applier. Transient failures are
// retried up to MaxAttempts; anything else surfaces immediately.
// Idempotency of retried writes is the Applier's contract (see
// FlakyApplier) — the driver retries the identical logical write, so a
// committed-but-unacknowledged attempt is never applied twice.
type Driver struct {
	Applier Applier
	// MaxAttempts bounds tries per write; zero means 4.
	MaxAttempts int
	// Sleep is the backoff clock; nil means time.Sleep. Tests inject a
	// recorder to keep runs fast and deterministic.
	Sleep func(time.Duration)

	stats DriverStats
}

// NewDriver wraps an applier with the default retry policy.
func NewDriver(a Applier) *Driver { return &Driver{Applier: a} }

func (d *Driver) attempts() int {
	if d.MaxAttempts <= 0 {
		return 4
	}
	return d.MaxAttempts
}

// backoff is the delay before retry attempt+1: 1 ms, doubled per attempt.
func backoff(attempt int) time.Duration { return time.Millisecond << attempt }

// Apply writes through the fallible applier, retrying transient
// failures with exponential backoff.
func (d *Driver) Apply(w ctl.TableWrite) error {
	d.stats.Writes++
	var last error
	for attempt := 0; attempt < d.attempts(); attempt++ {
		if attempt > 0 {
			d.stats.Retries++
			delay := backoff(attempt - 1)
			d.stats.BackedOff += delay
			sleep := d.Sleep
			if sleep == nil {
				sleep = time.Sleep
			}
			sleep(delay)
		}
		err := d.Applier.Apply(w)
		if err == nil {
			return nil
		}
		if !IsTransient(err) {
			d.stats.Failures++
			return err
		}
		last = err
	}
	d.stats.Failures++
	return fmt.Errorf("fault: write %s/%s failed after %d attempts: %w", w.NF, w.Table, d.attempts(), last)
}

// Stats returns a snapshot of the driver's counters.
func (d *Driver) Stats() DriverStats { return d.stats }
