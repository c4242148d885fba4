// Package verify is the generative correctness harness for the paper's
// central claim (Theorem 3.2): after the compile-time transformation,
// EVERY straight cut of checkpoints is a recovery line in EVERY execution.
// The hand-written corpus programs exercise that theorem on a handful of
// shapes and seeded schedules; this package hunts for counterexamples
// automatically, in the systematic-exploration tradition of TLC and
// DPOR-style model checkers:
//
//   - Generate (gen.go) emits seeded random, well-formed SPMD programs with
//     ID-dependent branches, loops, and matched send/recv patterns, drawn
//     from communication-motif templates plus random checkpoint-placement
//     mutation — possibly unsafe placements, which is the point: Phase III
//     must repair whatever Generate invents.
//
//   - Machine (machine.go) is a deterministic sequential interpreter of a
//     compiled program's per-process CFG product: n process states plus
//     explicit FIFO channel queues, advanced one visible communication
//     event at a time under an externally chosen schedule. A schedule is a
//     plain []int of process ids, so any execution replays exactly.
//
//   - Explore (explore.go) runs the machine under all message-delivery
//     interleavings up to a configurable branching-depth bound — DPOR-lite:
//     a depth-first search over schedule prefixes with sleep sets pruning
//     interleavings that only commute independent transitions. Beyond the
//     bound each branch is completed deterministically, so every explored
//     schedule yields a full, checkable trace.
//
//   - CheckTrace (check.go) asserts the theorem on each explored execution
//     and cross-validates four independently implemented consistency
//     deciders against each other: vector clocks captured at checkpoint
//     time, the structural happened-before closure, the orphan-message
//     criterion (all internal/trace), and Netzer-Xu zigzag-path
//     reachability (internal/zigzag). Any disagreement between the four is
//     reported as a harness bug, never swallowed.
//
//   - Mutate (mutate.go) is the no-vacuous-pass guard: it deliberately
//     breaks a transformed program — deleting one inserted checkpoint,
//     moving it across a communication statement, or skewing it into a
//     rank-parity branch (the Figure 2 shape) — and asserts the checker
//     DOES notice, either statically (checkpoint enumeration rejects the
//     mutant), by contract (the straight-cut index set changed), or
//     dynamically (an explored execution violates the theorem).
//
// The cmd/chkptverify CLI drives the harness (-seed, -progs, -depth,
// -mutate); every counterexample report carries the generator seed and
// schedule needed to replay it deterministically.
package verify
