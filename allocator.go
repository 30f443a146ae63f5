package telamalloc

import (
	"context"
	"sync"
	"time"
)

// Allocator is a configured, reusable allocation handle: options are
// validated, the learned models are bound, and the metrics registry is
// resolved once at construction, then every call pays only for the solve
// itself. A handle is safe for concurrent use; per-call options specialise a
// private copy of the configuration and never mutate the handle.
//
// Stopping a call. A call stops early for one of two reasons, each
// observed cooperatively within the search's polling stride:
//
//   - its WithTimeout budget, measured from the moment the call starts,
//     runs out: the call fails with ErrBudget;
//   - the ctx passed to Allocate or Pipeline is done — cancelled or past
//     its deadline: the call fails with ErrCancelled. To cancel a call,
//     pass a context from context.WithCancel.
//
// When both have fired by the same poll, the context is checked before the
// wall-clock deadline, so ErrCancelled wins ties.
type Allocator struct {
	cfg config
	pm  *pipelineMetrics
}

// New builds an allocation handle from the given options. Structurally
// invalid configurations — a negative timeout or step budget, an unknown
// ladder stage, a negative stage share or spill cap — are rejected here,
// once, with an error wrapping ErrInvalidProblem.
func New(opts ...Option) (*Allocator, error) {
	c := buildConfig(opts)
	if err := c.validate(); err != nil {
		return nil, err
	}
	return &Allocator{cfg: c, pm: pipelineMetricsFor(c.registry())}, nil
}

// callConfig specialises the handle's configuration for one call: clone,
// apply per-call options (re-validating only when there are any), resolve
// WithTimeout into the call's deadline and bind the call context.
func (a *Allocator) callConfig(ctx context.Context, opts []Option) (config, *pipelineMetrics, error) {
	c := a.cfg.clone()
	pm := a.pm
	if len(opts) > 0 {
		for _, o := range opts {
			o(&c)
		}
		if err := c.validate(); err != nil {
			return config{}, nil, err
		}
		if c.obsReg != a.cfg.obsReg {
			pm = pipelineMetricsFor(c.registry())
		}
	}
	if c.timeout > 0 {
		c.core.Deadline = time.Now().Add(c.timeout)
	}
	if ctx != context.Background() {
		c.core.Ctx = ctx
	}
	return c, pm, nil
}

// Allocate packs the problem's buffers with TelaMalloc under the handle's
// configuration, optionally specialised by per-call options. A nil error
// guarantees the returned solution is valid: every buffer in bounds,
// aligned, and disjoint from temporal neighbours. ctx stops the call as
// documented on Allocator.
func (a *Allocator) Allocate(ctx context.Context, p Problem, opts ...Option) (Solution, Stats, error) {
	c, _, err := a.callConfig(ctx, opts)
	if err != nil {
		return Solution{}, Stats{}, err
	}
	return allocateWith(c, p)
}

// Pipeline packs the problem through the escalation ladder (greedy →
// best-fit → search → spill by default) under the handle's configuration.
// See AllocatePipeline for the result contract; ctx stops the call as
// documented on Allocator.
func (a *Allocator) Pipeline(ctx context.Context, p Problem, opts ...Option) (PipelineResult, error) {
	c, pm, err := a.callConfig(ctx, opts)
	if err != nil {
		return PipelineResult{Memory: p.Memory}, err
	}
	return pipelineWith(c, pm, p)
}

// defaultHandle backs the package-level Allocate and AllocatePipeline
// wrappers: one zero-option handle, built on first use. Zero options cannot
// fail validation.
var defaultHandle = sync.OnceValue(func() *Allocator {
	a, err := New()
	if err != nil {
		panic("telamalloc: zero-option handle failed validation: " + err.Error())
	}
	return a
})
