package server

import (
	"sync"
	"time"
)

// BreakerConfig tunes the per-stage circuit breakers.
type BreakerConfig struct {
	// Threshold is the number of consecutive ErrInternal failures that
	// opens a stage's breaker (default 3; negative disables breakers).
	Threshold int
	// Cooldown is how long an open breaker skips its stage before
	// admitting a half-open probe (default 5s).
	Cooldown time.Duration
}

func (c BreakerConfig) withDefaults() BreakerConfig {
	if c.Threshold == 0 {
		c.Threshold = 3
	}
	if c.Cooldown <= 0 {
		c.Cooldown = 5 * time.Second
	}
	return c
}

// breakerState is the classic three-state machine.
type breakerState int

const (
	stateClosed breakerState = iota
	stateOpen
	stateHalfOpen
)

// breaker isolates one pipeline stage. Closed admits the stage and counts
// consecutive qualifying failures; at Threshold it opens. Open skips the
// stage until Cooldown elapses, then admits exactly one in-flight probe
// (half-open). A probe that runs cleanly closes the breaker; one that fails
// re-opens it for another cooldown. A probe whose request never actually
// reached the stage (an earlier stage won, or the problem was provably
// infeasible) releases the probe slot without a verdict, so the next
// request probes again.
type breaker struct {
	mu       sync.Mutex
	cfg      BreakerConfig
	state    breakerState
	fails    int
	openedAt time.Time
	probing  bool
}

func newBreaker(cfg BreakerConfig) *breaker { return &breaker{cfg: cfg} }

// decision records what admit granted, so observe can settle it.
type decision struct {
	include bool
	probe   bool
}

// admit decides whether the stage joins this request's ladder.
func (b *breaker) admit(now time.Time) decision {
	if b.cfg.Threshold < 0 {
		return decision{include: true}
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case stateClosed:
		return decision{include: true}
	case stateOpen:
		if now.Sub(b.openedAt) < b.cfg.Cooldown {
			return decision{}
		}
		b.state = stateHalfOpen
		b.probing = true
		return decision{include: true, probe: true}
	default: // stateHalfOpen
		if b.probing {
			return decision{}
		}
		b.probing = true
		return decision{include: true, probe: true}
	}
}

// observe settles a request's verdict for this stage. ran reports whether
// the stage actually executed (not skipped by the pipeline); failed whether
// its outcome qualifies as a breaker failure. It returns which transitions
// happened so the server can count trips and recoveries.
func (b *breaker) observe(d decision, ran, failed bool, now time.Time) (tripped, recovered bool) {
	if b.cfg.Threshold < 0 || !d.include {
		return false, false
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if d.probe {
		b.probing = false
	}
	if !ran {
		// No signal: the ladder never reached the stage. A probe slot was
		// already released above; state is unchanged.
		return false, false
	}
	if failed {
		if d.probe || b.state == stateHalfOpen {
			b.state = stateOpen
			b.openedAt = now
			b.fails = 0
			return false, false
		}
		b.fails++
		if b.fails >= b.cfg.Threshold {
			b.state = stateOpen
			b.openedAt = now
			b.fails = 0
			return true, false
		}
		return false, false
	}
	// Clean run: a probe (or any run observed in half-open) closes the
	// breaker; in closed state it resets the consecutive-failure count.
	if d.probe || b.state == stateHalfOpen {
		b.state = stateClosed
		b.fails = 0
		return false, true
	}
	b.fails = 0
	return false, false
}
