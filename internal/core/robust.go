package core

import (
	"errors"
	"fmt"

	"telamalloc/internal/telamon"
)

// ErrPanic is wrapped by every error produced from a contained panic, so
// upper layers (spill planning, the public pipeline) can distinguish an
// internal failure from a genuine search failure instead of, say, evicting
// buffers to work around a crashing policy.
var ErrPanic = errors.New("core: contained panic")

// This file is the panic-containment boundary of the allocator. TelaMalloc
// runs inside production compilers where a crash in the allocator — or in a
// user-supplied learned policy plugged into it — must never take down the
// host process. Every worker goroutine and every call into user-supplied
// code (Chooser, Gate, Hook) is guarded: a panic is recovered at
// the subproblem boundary and surfaced as telamon.Internal with an error
// naming the component that misbehaved, so callers see ErrInternal instead
// of a crash.

// hookPanic wraps a panic escaping a user-supplied hook with the hook's
// name, so the recovery boundary can attribute the failure. It is re-thrown
// immediately and only ever observed by internalError.
type hookPanic struct {
	hook string
	val  any
}

// asHookPanic tags a recovered value with the hook it escaped from,
// preserving an existing tag (the innermost hook is the culprit).
func asHookPanic(hook string, r any) hookPanic {
	if hp, ok := r.(hookPanic); ok {
		return hp
	}
	return hookPanic{hook: hook, val: r}
}

// internalError renders a recovered panic as the error carried by an
// Internal result: which component panicked, at which pipeline point, and
// the panic value itself.
func internalError(point string, r any) error {
	if hp, ok := r.(hookPanic); ok {
		return fmt.Errorf("%w in user-supplied %s (%s): %v", ErrPanic, hp.hook, point, hp.val)
	}
	return fmt.Errorf("%w in %s: %v", ErrPanic, point, r)
}

// guardHook wraps the test-only fault-injection hook so that a panic in it
// is attributed to "test hook" when the containment boundary recovers it.
func guardHook(hook func(point string) bool) func(point string) bool {
	if hook == nil {
		return nil
	}
	return func(point string) (v bool) {
		defer func() {
			if r := recover(); r != nil {
				panic(asHookPanic("test hook", r))
			}
		}()
		return hook(point)
	}
}

// safeChoose calls a user-supplied backtrack chooser under attribution.
func safeChoose(c BacktrackChooser, st *telamon.State, dp *telamon.DecisionPoint) (target int, ok bool) {
	defer func() {
		if r := recover(); r != nil {
			panic(asHookPanic("backtrack chooser", r))
		}
	}()
	return c.Choose(st, dp)
}

// safeGate calls a user-supplied candidate gate under attribution.
func safeGate(g CandidateGate, st *telamon.State) (v bool) {
	defer func() {
		if r := recover(); r != nil {
			panic(asHookPanic("candidate gate", r))
		}
	}()
	return g.Expensive(st)
}
