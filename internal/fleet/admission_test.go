package fleet

import (
	"errors"
	"testing"

	"repro/internal/metrics"
	"repro/internal/obs"
)

func wantReject(t *testing.T, a *Admission, tenant, reason string) {
	t.Helper()
	rel, err := a.TryAdmit(tenant)
	if err == nil {
		rel()
		t.Fatalf("TryAdmit(%q) admitted, want rejection %q", tenant, reason)
	}
	if !errors.Is(err, ErrAdmissionRejected) {
		t.Fatalf("rejection does not wrap ErrAdmissionRejected: %v", err)
	}
	var aerr *AdmissionError
	if !errors.As(err, &aerr) {
		t.Fatalf("rejection is not *AdmissionError: %v", err)
	}
	if aerr.Reason != reason || aerr.Tenant != tenant {
		t.Fatalf("rejection = %+v, want tenant=%q reason=%q", aerr, tenant, reason)
	}
}

func TestAdmissionFleetCapacity(t *testing.T) {
	ctr := &metrics.Counters{}
	a := NewAdmission(2, nil, ctr, nil)

	rel1, err := a.TryAdmit("a")
	if err != nil {
		t.Fatal(err)
	}
	rel2, err := a.TryAdmit("b")
	if err != nil {
		t.Fatal(err)
	}
	wantReject(t, a, "c", ReasonFleetCapacity)
	if got := ctr.Snapshot().Gauges["fleet_active_jobs"]; got != 2 {
		t.Errorf("fleet_active_jobs = %v, want 2", got)
	}
	if got := ctr.Snapshot().Gauges["fleet_rejected"]; got != 1 {
		t.Errorf("fleet_rejected = %v, want 1", got)
	}

	// Releasing frees the slot; double release is harmless.
	rel1()
	rel1()
	if a.Active() != 1 {
		t.Fatalf("active = %d after release, want 1", a.Active())
	}
	rel3, err := a.TryAdmit("c")
	if err != nil {
		t.Fatalf("admit after release: %v", err)
	}
	rel2()
	rel3()
	if a.Active() != 0 {
		t.Fatalf("active = %d after all releases, want 0", a.Active())
	}
	cs := ctr.Snapshot().Custom
	if cs["fleet_admitted"] != 3 || cs["fleet_rejected_total"] != 1 || cs["fleet_rejected_"+ReasonFleetCapacity] != 1 {
		t.Errorf("counters = %v", cs)
	}
}

func TestAdmissionTenantQuota(t *testing.T) {
	tenants := []TenantConfig{{Name: "small", Quota: 1}, {Name: "big"}}
	sink := obs.NewRecorder()
	a := NewAdmission(10, tenants, nil, sink)

	relS, err := a.TryAdmit("small")
	if err != nil {
		t.Fatal(err)
	}
	// small is at quota; big is unbounded (up to the fleet cap).
	wantReject(t, a, "small", ReasonTenantQuota)
	for i := 0; i < 5; i++ {
		if _, err := a.TryAdmit("big"); err != nil {
			t.Fatalf("big admit %d: %v", i, err)
		}
	}
	relS()
	if _, err := a.TryAdmit("small"); err != nil {
		t.Fatalf("small after release: %v", err)
	}

	var admits, rejects int
	for _, e := range sink.Events() {
		switch e.Kind {
		case obs.KindAdmit:
			admits++
		case obs.KindReject:
			rejects++
			if e.Tag != "small" || e.Label != ReasonTenantQuota {
				t.Errorf("reject event = %+v", e)
			}
		}
	}
	if admits != 7 || rejects != 1 {
		t.Errorf("events: admits=%d rejects=%d, want 7/1", admits, rejects)
	}
}

func TestAdmissionDraining(t *testing.T) {
	a := NewAdmission(0, nil, nil, nil)
	rel, err := a.TryAdmit("t")
	if err != nil {
		t.Fatal(err)
	}
	a.StartDrain()
	wantReject(t, a, "t", ReasonDraining)
	// In-flight work is unaffected and can still release.
	rel()
	if a.Active() != 0 {
		t.Fatalf("active = %d, want 0", a.Active())
	}
}

func TestRetryBudgetTokenBucket(t *testing.T) {
	b := NewRetryBudget(2, 3)
	if b.tokens.Load() != 2 {
		t.Fatalf("initial tokens = %d", b.tokens.Load())
	}
	b.Deposit(10) // clamped at cap
	if b.tokens.Load() != 3 {
		t.Fatalf("tokens after clamped deposit = %d, want 3", b.tokens.Load())
	}
	for i := 0; i < 3; i++ {
		if !b.AllowRetry("save") {
			t.Fatalf("retry %d refused with tokens left", i)
		}
	}
	if b.AllowRetry("save") {
		t.Fatal("retry allowed on empty bucket")
	}
	b.Deposit(1)
	if !b.AllowRetry("save") {
		t.Fatal("retry refused after refill")
	}

	// Uncapped bucket accumulates freely.
	u := NewRetryBudget(0, 0)
	u.Deposit(1 << 20)
	if u.tokens.Load() != 1<<20 {
		t.Fatalf("uncapped tokens = %d", u.tokens.Load())
	}
}
