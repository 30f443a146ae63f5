package telamon

// This file documents the policy contract in one place; the interface
// itself lives in telamon.go.
//
// # Policy lifecycle
//
// The framework calls the policy at three moments:
//
//  1. Candidates — once when a decision point opens (cursor 0), then once
//     per later batch. The policy inspects the live state (placed buffers,
//     solver bounds, phase structure) and appends a batch of candidates,
//     returning the cursor for the next batch or a negative cursor after
//     the last. The framework pulls a later batch only when it has walked
//     every candidate so far — while trying candidates or building a
//     promotion — and only while the model is at that decision point's
//     placement prefix, so the batches joined read as one eager queue. It
//     walks that queue across minor backtracks and may later replace it
//     with promoted candidates from deeper, failed decision points. Batches
//     let a policy build its orders once per problem and open each decision
//     point in O(picks), paying for a later batch only when the search gets
//     to it. The framework adds no candidate of its own: a point whose
//     batches hold none is exhausted.
//
//     At cursor 0, dst is not nil but an empty slice over the decision
//     point's own room for three candidates. A policy that appends its
//     opening batch to dst therefore opens a point without allocating when
//     the batch holds at most three, as TelaMalloc's one-phase picks do;
//     a longer batch makes append move to a fresh array, as for any slice.
//     A policy may also ignore dst and return a slice of its own. Either
//     way the point owns what the call returns, and later batches are
//     appended to it.
//
//  2. Placement — once per candidate attempt. The policy converts a buffer
//     ID into a concrete position; ok=false marks the candidate dead
//     without touching solver state (counted as a minor backtrack).
//
//  3. BacktrackTarget — once per major backtrack, before the framework's
//     own targeting. Policies without an opinion return ok=false; the
//     learned backtracking model (§6 of the paper) plugs in here.
//
// # State visibility rules
//
// Policies may read State freely but must not mutate Stack, PlacedLevel, or
// the model except through the documented query methods. The framework owns
// all state transitions; a policy that calls Model.Push/Pop or Place
// corrupts the trail discipline.
//
// # Determinism
//
// Search(p, ov, policy, opts) is deterministic for deterministic policies:
// no randomness, no wall-clock reads (the Deadline check observes time but
// only decides *whether* to stop, never *what* to explore next — so two
// runs that both complete within budget explore identical trees).
