package chaos

import (
	"reflect"
	"testing"
)

func TestCrashScheduleDeterministicPerSeed(t *testing.T) {
	cfg := ScheduleConfig{Nproc: 4, Lambda: 1.5, MaxIncarnations: 3}
	a := CrashSchedule(99, cfg)
	b := CrashSchedule(99, cfg)
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("same seed diverged:\n%v\n%v", a, b)
	}
}

func TestCrashScheduleShape(t *testing.T) {
	cfg := ScheduleConfig{Nproc: 4, Lambda: 1.5, MaxIncarnations: 3, MaxEvents: 25}
	sawLateInc := false
	sawConcurrent := false
	for seed := int64(0); seed < 50; seed++ {
		perInc := make(map[int]map[int]bool)
		for _, c := range CrashSchedule(seed, cfg) {
			if c.Proc < 0 || c.Proc >= cfg.Nproc {
				t.Fatalf("seed %d: proc %d out of range", seed, c.Proc)
			}
			if c.Inc < 0 || c.Inc >= cfg.MaxIncarnations {
				t.Fatalf("seed %d: inc %d out of range", seed, c.Inc)
			}
			if c.AfterEvents < 1 || c.AfterEvents > cfg.MaxEvents {
				t.Fatalf("seed %d: AfterEvents %d out of [1,%d]", seed, c.AfterEvents, cfg.MaxEvents)
			}
			if perInc[c.Inc] == nil {
				perInc[c.Inc] = make(map[int]bool)
			}
			if perInc[c.Inc][c.Proc] {
				t.Fatalf("seed %d: process %d crashes twice in incarnation %d", seed, c.Proc, c.Inc)
			}
			perInc[c.Inc][c.Proc] = true
			if c.Inc >= 1 {
				sawLateInc = true
			}
		}
		for _, procs := range perInc {
			if len(procs) >= 2 {
				sawConcurrent = true
			}
		}
	}
	if !sawLateInc {
		t.Error("no schedule crashed a later incarnation across 50 seeds")
	}
	if !sawConcurrent {
		t.Error("no schedule crashed two processes concurrently across 50 seeds")
	}
}

func TestCrashScheduleZeroLambdaIsEmpty(t *testing.T) {
	if s := CrashSchedule(1, ScheduleConfig{Nproc: 4, Lambda: 0, MaxIncarnations: 3}); len(s) != 0 {
		t.Fatalf("λ=0 schedule = %v, want empty", s)
	}
	if s := CrashSchedule(1, ScheduleConfig{Nproc: 0, Lambda: 5}); s != nil {
		t.Fatalf("nproc=0 schedule = %v, want nil", s)
	}
}
