package shard

import (
	"github.com/checkin-kv/checkin/internal/sim"
)

// tokenBucket is per-tenant admission control. It is deliberately a pure
// function of arrival times: tokens refill with virtual time and each
// admission spends one, with no feedback from service completions. That
// independence is what keeps the coordinator's admission decisions
// computable before any shard runs a window — the property the parallel
// shard domains rest on. (Closed-loop admission — shedding based on queue
// depth — would couple the decision to service progress and reintroduce a
// cross-domain edge mid-window.)
type tokenBucket struct {
	ratePerNS float64
	burst     float64
	tokens    float64
	last      sim.VTime
}

func newTokenBucket(ratePerSec, burst float64) *tokenBucket {
	if burst < 1 {
		burst = 1
	}
	return &tokenBucket{
		ratePerNS: ratePerSec / float64(sim.Second),
		burst:     burst,
		tokens:    burst,
	}
}

// admit spends a token at arrival time at (non-decreasing across calls) and
// reports whether the op is admitted; a dry bucket sheds it.
func (b *tokenBucket) admit(at sim.VTime) bool {
	// float64(…) rounds the product: no architecture may fuse the
	// multiply-add, so results are bit-identical on every GOARCH
	b.tokens += float64(float64(at-b.last) * b.ratePerNS)
	if b.tokens > b.burst {
		b.tokens = b.burst
	}
	b.last = at
	if b.tokens >= 1 {
		b.tokens--
		return true
	}
	return false
}
