package patchwork

import (
	"strings"
	"testing"

	"repro/internal/retry"
	"repro/internal/sim"
	"repro/internal/testbed"
)

// hasLog reports whether any bundle log line contains substr.
func hasLog(b Bundle, substr string) bool {
	for _, e := range b.Logs {
		if strings.Contains(e.Message, substr) {
			return true
		}
	}
	return false
}

// TestTransientOutageRecoveredByRetry: a short back-end outage at run
// start is survived by the back-off loop — the site retries past the
// window and completes successfully instead of failing outright.
func TestTransientOutageRecoveredByRetry(t *testing.T) {
	env := newEnv(t, 1)
	env.fed.Sites()[0].AddOutage(0, 5*sim.Second)
	prof := runProfile(t, env, quickConfig())
	b := prof.Bundles[0]
	if b.Outcome != OutcomeSuccess {
		t.Errorf("outcome = %v (%s), want success", b.Outcome, b.FailureReason)
	}
	if !hasLog(b, "retrying in") {
		t.Error("expected a retry log entry for the transient window")
	}
	if len(b.Pcaps) == 0 {
		t.Error("recovered run captured nothing")
	}
}

// TestRetryExhaustionDegrades: when one listener's allocation keeps
// failing transiently, the site must exhaust its retry budget and run
// degraded with the listeners it holds — not abort.
func TestRetryExhaustionDegrades(t *testing.T) {
	env := newEnv(t, 1)
	site := env.fed.Sites()[0]
	calls := 0
	// Let listener 0 through (its CanAllocate + Allocate pair), then fail
	// every later attempt.
	site.SetAllocFault(func(now sim.Time) error {
		calls++
		if calls <= 2 {
			return nil
		}
		return testbed.ErrBackendTransient
	})
	cfg := quickConfig()
	cfg.InstancesWanted = 2
	cfg.Retry = retry.Policy{Base: sim.Second, Cap: 2 * sim.Second, Multiplier: 2, Jitter: 0.1, MaxAttempts: 3}
	prof := runProfile(t, env, cfg)
	b := prof.Bundles[0]
	if b.Outcome != OutcomeDegraded {
		t.Fatalf("outcome = %v (%s), want degraded", b.Outcome, b.FailureReason)
	}
	if b.InstancesGranted != 1 || b.InstancesRequested != 2 {
		t.Errorf("instances = %d/%d, want 1/2", b.InstancesGranted, b.InstancesRequested)
	}
	if !hasLog(b, "retries exhausted") || !hasLog(b, "degrading to 1/2") {
		t.Errorf("missing exhaustion/degradation logs: %v", b.Logs)
	}
	if len(b.Pcaps) == 0 {
		t.Error("degraded run captured nothing")
	}
}

// TestSetupTimeoutDegrades: the per-phase deadline cuts the retry loop
// short before the attempt budget is spent; the site still degrades
// gracefully.
func TestSetupTimeoutDegrades(t *testing.T) {
	env := newEnv(t, 1)
	site := env.fed.Sites()[0]
	calls := 0
	site.SetAllocFault(func(now sim.Time) error {
		calls++
		if calls <= 2 {
			return nil
		}
		return testbed.ErrBackendTransient
	})
	cfg := quickConfig()
	cfg.InstancesWanted = 2
	cfg.SetupTimeout = 2 * sim.Second // default retry budget would run ~1 min
	prof := runProfile(t, env, cfg)
	b := prof.Bundles[0]
	if b.Outcome != OutcomeDegraded {
		t.Fatalf("outcome = %v (%s), want degraded", b.Outcome, b.FailureReason)
	}
	if !hasLog(b, "phase deadline reached") {
		t.Errorf("missing deadline log: %v", b.Logs)
	}
	if b.InstancesGranted != 1 {
		t.Errorf("granted = %d, want 1", b.InstancesGranted)
	}
}

// TestPersistentBackendFailureFails: with no listener allocated at all,
// exhausting retries is a hard failure with the back-end error surfaced.
func TestPersistentBackendFailureFails(t *testing.T) {
	env := newEnv(t, 1)
	site := env.fed.Sites()[0]
	site.SetAllocFault(func(sim.Time) error { return testbed.ErrBackendTransient })
	cfg := quickConfig()
	cfg.Retry = retry.Policy{Base: sim.Second, Cap: 2 * sim.Second, Multiplier: 2, Jitter: 0.1, MaxAttempts: 2}
	prof := runProfile(t, env, cfg)
	b := prof.Bundles[0]
	if b.Outcome != OutcomeFailed {
		t.Fatalf("outcome = %v, want failed", b.Outcome)
	}
	if !strings.Contains(b.FailureReason, "backend") {
		t.Errorf("reason = %q", b.FailureReason)
	}
	if site.ActiveSlivers() != 0 {
		t.Errorf("failed run leaked %d slivers", site.ActiveSlivers())
	}
}

// TestRetryDelaysConsumeSimTime: the event-driven setup actually waits
// between attempts — a run that retried must finish later than one that
// did not.
func TestRetryDelaysConsumeSimTime(t *testing.T) {
	smooth := runProfile(t, newEnv(t, 1), quickConfig())

	env := newEnv(t, 1)
	env.fed.Sites()[0].AddOutage(0, 10*sim.Second)
	bumpy := runProfile(t, env, quickConfig())

	if bumpy.Bundles[0].Outcome != OutcomeSuccess {
		t.Fatalf("bumpy outcome = %v", bumpy.Bundles[0].Outcome)
	}
	if d0, d1 := smooth.Finished-smooth.Started, bumpy.Finished-bumpy.Started; d1 <= d0 {
		t.Errorf("retrying run took %v, smooth run %v — back-off consumed no sim time", d1, d0)
	}
}

// TestConfigRejectsBadRetryAndTimeout pins validation of the new knobs.
func TestConfigRejectsBadRetryAndTimeout(t *testing.T) {
	cfg := quickConfig()
	cfg.Retry = retry.Policy{Base: sim.Second, Cap: 2 * sim.Second, Multiplier: 2, Jitter: 3, MaxAttempts: 2}
	if err := cfg.Validate(); err == nil {
		t.Error("jitter > 1 should fail validation")
	}
	cfg = quickConfig()
	cfg.SetupTimeout = -sim.Second
	if err := cfg.Validate(); err == nil || !strings.Contains(err.Error(), "setup timeout") {
		t.Errorf("negative setup timeout: err = %v", err)
	}
	if err := quickConfig().Validate(); err != nil {
		t.Errorf("zero retry policy must validate via defaults: %v", err)
	}
}
