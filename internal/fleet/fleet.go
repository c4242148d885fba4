// Package fleet is the scale layer over the single-job simulator: where
// internal/sim validates ONE application's coordination-free checkpointing
// (the paper's setting), fleet drives THOUSANDS of concurrent jobs against
// one shared checkpoint store and keeps the whole population correct and
// observable while storage and network chaos hit everyone at once — the
// ROADMAP's millions-of-users story.
//
// The engine is built as a robustness subsystem, not a load generator:
//
//   - open-loop Poisson arrivals: jobs arrive on their own clock, so
//     overload cannot hide behind closed-loop self-throttling;
//   - admission control with per-tenant quotas: capacity is refused
//     up-front with a typed ErrAdmissionRejected — never an unbounded
//     queue that collapses under sustained overload;
//   - per-tenant retry budgets (sim.RetryBudget) over the runtime's
//     capped-backoff retry: a storage brownout hitting every job at once
//     spends a bounded, tenant-proportional number of retries fleet-wide
//     instead of multiplying into a retry storm;
//   - a half-open circuit breaker around the shared store: consecutive
//     transient failures trip it open, shedding storage load fast (each
//     shed save converts into the job's ordinary crash→recovery path, so
//     jobs pace themselves instead of hammering a browned-out store);
//     probes through the half-open state close it again;
//   - graceful drain: stop admissions, let in-flight jobs finish inside a
//     deadline, then cancel the rest — sim.ErrCanceled parks them with
//     their checkpoints intact (nothing re-admits a parked job yet:
//     ROADMAP item 5);
//   - a strict terminal taxonomy: every admitted job lands in EXACTLY one
//     of succeeded / infra_failed / business_failed / parked. Report.
//     Conserved() checks admitted == Σ buckets; the chaos soaks assert it
//     across seeds, which is the fleet-level "no job silently lost"
//     counterpart of the paper's per-job recovery guarantee.
//
// Every job taps the same obs.Observer fan-out and metrics.Counters, so
// one telemetry aggregator serves live fleet-wide stats (fleet gauges ride
// the existing counters→/metrics path).
package fleet

import (
	"errors"
	"fmt"

	"repro/internal/sim"
)

// Terminal taxonomy buckets. Every admitted job ends in exactly one; the
// names double as metrics counter suffixes and obs jobdone tags.
const (
	BucketSucceeded      = "succeeded"
	BucketInfraFailed    = "infra_failed"
	BucketBusinessFailed = "business_failed"
	BucketParked         = "parked"
)

// Buckets lists the taxonomy in report order.
var Buckets = []string{BucketSucceeded, BucketInfraFailed, BucketBusinessFailed, BucketParked}

// bucketCounters names each bucket's counter, built once, not once per job.
var bucketCounters = map[string]string{}

func init() {
	for _, b := range Buckets {
		bucketCounters[b] = "fleet_" + b
	}
}

// Admission-rejection reasons (AdmissionError.Reason).
const (
	ReasonFleetCapacity = "fleet_capacity"
	ReasonTenantQuota   = "tenant_quota"
	ReasonDraining      = "draining"
)

// ErrAdmissionRejected is the sentinel every admission refusal wraps:
// callers branch with errors.Is and read the reason from AdmissionError.
// Rejection is immediate and stateless — a rejected arrival is counted and
// dropped, never queued, so overload cannot build a collapse-prone backlog.
var ErrAdmissionRejected = errors.New("fleet: admission rejected")

// ErrBusiness marks a job failure owned by the application (bad input,
// simulated domain error), as opposed to infrastructure (storage, network,
// runtime). Wrap business outcomes with it so Classify separates the two:
// infra failures page the platform, business failures page the tenant.
var ErrBusiness = errors.New("fleet: business failure")

// AdmissionError is the typed refusal.
type AdmissionError struct {
	Tenant string
	Reason string // ReasonFleetCapacity | ReasonTenantQuota | ReasonDraining
}

func (e *AdmissionError) Error() string {
	return fmt.Sprintf("fleet: admission rejected (%s) for tenant %q", e.Reason, e.Tenant)
}

// Unwrap makes errors.Is(err, ErrAdmissionRejected) hold.
func (e *AdmissionError) Unwrap() error { return ErrAdmissionRejected }

// Classify maps an admitted job's terminal error to its taxonomy bucket.
// The mapping is total: any error not recognizably business or parked is
// infrastructure, so no outcome can escape the taxonomy.
func Classify(err error) string {
	switch {
	case err == nil:
		return BucketSucceeded
	case errors.Is(err, sim.ErrCanceled):
		return BucketParked
	case errors.Is(err, ErrBusiness):
		return BucketBusinessFailed
	default:
		return BucketInfraFailed
	}
}
