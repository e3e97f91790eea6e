package sampling

import (
	"context"
	"runtime"
)

// ctxCheckBlock is the number of samples drawn between context checks in
// the estimation loops. Cancellation is cooperative and block-granular:
// the samplers never poll ctx.Err() inside the per-edge BFS hot loop, only
// between sample blocks, so an uncancelled estimate pays one predictable
// branch per sample and consumes exactly the same randomness as an unbound
// sampler (bit-identical results — pinned by the differential suites).
// A cancelled estimate returns within one block of walks.
//
// Each check is also a scheduling point: a bound sampler yields the
// processor (runtime.Gosched) before it polls. A served estimate or solve is
// CPU-bound for many milliseconds, and without a yield a request that
// arrives beside it on a small GOMAXPROCS (a mutation, a health probe) waits
// for the runtime's 10 ms preemption tick before its handler runs. Yielding
// never changes a result; it costs one scheduler pass per block. Unbound
// samplers, which serve batch runs with the process to themselves, neither
// poll nor yield.
const ctxCheckBlock = 64

// canceller is the shared SetContext state embedded by every built-in
// sampler. The zero value is unbound: no context, no overhead beyond a nil
// check per sample block. The Done channel is cached at binding time so
// the per-block poll is a non-blocking channel receive — no ctx.Err()
// mutex on the hot path.
type canceller struct {
	ctx  context.Context
	done <-chan struct{}
}

// normalizeContext drops contexts that can never be cancelled (Background,
// TODO, pure value contexts): binding them would add polls to the sampling
// loops for a signal that cannot fire.
func normalizeContext(ctx context.Context) context.Context {
	if ctx == nil || (ctx.Done() == nil && ctx.Err() == nil) {
		return nil
	}
	return ctx
}

// SetContext implements the Sampler interface's context binding.
func (cc *canceller) SetContext(ctx context.Context) {
	cc.ctx = normalizeContext(ctx)
	if cc.ctx != nil {
		cc.done = cc.ctx.Done()
	} else {
		cc.done = nil
	}
}

// cancelled reports whether the bound context has fired. Called once per
// sample block; the nil fast path keeps unbound samplers at a single
// pointer compare, and bound samplers yield (see ctxCheckBlock) and pay one
// non-blocking receive.
func (cc *canceller) cancelled() bool {
	if cc.done == nil {
		return false
	}
	runtime.Gosched()
	select {
	case <-cc.done:
		return true
	default:
		return false
	}
}
