package workflow

import (
	"bytes"
	"errors"
	"testing"

	"github.com/imcstudy/imcstudy/internal/hpc"
	"github.com/imcstudy/imcstudy/internal/retry"
)

func chaosBase() Config {
	return Config{
		Machine:  hpc.Titan(),
		Method:   MethodDataSpacesNative,
		Workload: WorkloadSynthetic,
		SimProcs: 8,
		AnaProcs: 4,
		Steps:    2,
		Metrics:  true,
	}
}

func metricsJSON(t *testing.T, cfg Config) ([]byte, Result) {
	t.Helper()
	res, err := Run(cfg)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if res.Failed {
		t.Fatalf("workflow failed: %v", res.FailErr)
	}
	js, err := res.Metrics.EncodeJSON()
	if err != nil {
		t.Fatal(err)
	}
	return js, res
}

// TestRetryPolicyLeavesFaultFreeRunsUnchanged is the retry determinism
// contract: enabling a retry policy on a run with no faults must leave
// the metrics byte-identical, because backoff jitter is only drawn (and
// retry counters only created) on actual retries.
func TestRetryPolicyLeavesFaultFreeRunsUnchanged(t *testing.T) {
	plain, _ := metricsJSON(t, chaosBase())
	cfg := chaosBase()
	cfg.Retry = retry.Policy{MaxAttempts: 5, BaseBackoff: 0.01, Jitter: 0.5, Seed: 42}
	armed, _ := metricsJSON(t, cfg)
	if !bytes.Equal(plain, armed) {
		t.Error("metrics JSON differs between no-policy and armed-but-unused retry policy")
	}
}

// TestWatchdogLeavesHealthyRunsUnchanged: arming the stall watchdog on a
// healthy run must not change a byte — it observes the event loop, it
// never schedules into it.
func TestWatchdogLeavesHealthyRunsUnchanged(t *testing.T) {
	plain, _ := metricsJSON(t, chaosBase())
	cfg := chaosBase()
	cfg.StallHorizon = 1000
	armed, res := metricsJSON(t, cfg)
	if !bytes.Equal(plain, armed) {
		t.Error("metrics JSON differs between unarmed and armed watchdog")
	}
	if res.EndToEnd > 1000 {
		t.Fatalf("healthy run outlasted the horizon (%.3f); test premise broken", res.EndToEnd)
	}
}

// TestTransientFaultRunsAreSeedDeterministic: a run under message-loss,
// server-busy and op-fault windows with retries is still byte-identical
// when repeated — the per-window PRNGs and backoff jitter are all
// seed-derived.
func TestTransientFaultRunsAreSeedDeterministic(t *testing.T) {
	cfg := chaosBase()
	cfg.Faults = &FaultPlan{
		Seed:        7,
		MessageLoss: []TransientWindow{{Role: RoleStaging, Index: 0, At: 0, Duration: 1000, Prob: 0.2}},
		ServerBusy:  []TransientWindow{{Role: RoleStaging, Index: 0, At: 0, Duration: 1000, Prob: 0.2}},
		OpFaults:    []TransientWindow{{Role: RoleStaging, Index: 0, At: 0, Duration: 1000, Prob: 0.1}},
	}
	cfg.Retry = retry.Policy{MaxAttempts: 20, BaseBackoff: 0.001, MaxBackoff: 0.05, Jitter: 0.3, Seed: 11}
	a, resA := metricsJSON(t, cfg)
	b, _ := metricsJSON(t, cfg)
	if !bytes.Equal(a, b) {
		t.Error("metrics JSON differs between identical transient-fault runs")
	}
	// The windows must actually have fired, or this test proves nothing.
	fired := false
	for _, name := range []string{"transport/lost_msgs", "faults/busy_rejections", "faults/op_faults"} {
		if resA.Metrics.Counter(name).Value() > 0 {
			fired = true
		}
	}
	if !fired {
		t.Error("no transient fault ever fired; widen the windows")
	}
	if resA.Metrics.Counter("retry/send/retries").Value() == 0 &&
		resA.Metrics.Counter("retry/ds/put/retries").Value() == 0 {
		t.Error("faults fired but no retries recorded")
	}
}

// TestRetryPolicyIsTheMitigation: under the pinned seed, message loss
// kills the unmitigated run and the retry policy saves it — the A/B the
// chaos campaigns sweep.
func TestRetryPolicyIsTheMitigation(t *testing.T) {
	cfg := chaosBase()
	cfg.Faults = &FaultPlan{
		Seed:        3,
		MessageLoss: []TransientWindow{{Role: RoleStaging, Index: 0, At: 0, Duration: 1000, Prob: 0.5}},
	}
	res, err := Run(cfg)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if !res.Failed {
		t.Fatal("unmitigated run survived 50% message loss; pick a harsher seed")
	}
	if got := FailureClass(res.FailErr); got != "message-lost" {
		t.Fatalf("loss failure %v classified %q, want message-lost", res.FailErr, got)
	}
	if !errors.Is(res.FailErr, hpc.ErrMessageLost) {
		t.Fatalf("failure %v does not wrap ErrMessageLost", res.FailErr)
	}

	cfg.Retry = retry.Policy{MaxAttempts: 20, BaseBackoff: 0.001, MaxBackoff: 0.05, Jitter: 0.3, Seed: 11}
	cfg.Metrics = true
	res, err = Run(cfg)
	if err != nil {
		t.Fatalf("Run (retry): %v", err)
	}
	if res.Failed {
		t.Fatalf("retry-mitigated run still failed: %v", res.FailErr)
	}
	if res.Metrics.Counter("retry/send/retries").Value() == 0 {
		t.Error("mitigated run recorded no send retries")
	}
}

// TestFaultPlanValidate exercises the malformed-plan rejections.
func TestFaultPlanValidate(t *testing.T) {
	pools := FaultPools{Staging: 2, Sim: 4, Ana: 2}
	cases := []struct {
		name string
		plan FaultPlan
		ok   bool
	}{
		{"empty", FaultPlan{}, true},
		{"valid mixed", FaultPlan{
			Crashes:      []NodeCrash{{Role: RoleStaging, Index: 1, At: 2}},
			Degradations: []LinkDegradation{{Role: RoleSim, Index: 3, At: 0, Duration: 1, Factor: 0.5}},
			Timeouts:     []TimeoutWindow{{Role: RoleAna, Index: 0, At: 0, Duration: 1, Extra: 0.01}},
			MessageLoss:  []TransientWindow{{Role: RoleStaging, Index: 0, At: 0, Duration: 5, Prob: 0.3}},
		}, true},
		{"negative random crashes", FaultPlan{RandomCrashes: -1}, false},
		{"negative horizon", FaultPlan{RandomCrashHorizon: -1}, false},
		{"crash negative at", FaultPlan{Crashes: []NodeCrash{{Role: RoleSim, At: -0.1}}}, false},
		{"crash index out of range", FaultPlan{Crashes: []NodeCrash{{Role: RoleStaging, Index: 2, At: 1}}}, false},
		{"negative index", FaultPlan{Crashes: []NodeCrash{{Role: RoleSim, Index: -1, At: 1}}}, false},
		{"unknown role", FaultPlan{Crashes: []NodeCrash{{Role: "gpu", At: 1}}}, false},
		{"degradation factor zero", FaultPlan{
			Degradations: []LinkDegradation{{Role: RoleSim, Duration: 1, Factor: 0}}}, false},
		{"degradation factor above one", FaultPlan{
			Degradations: []LinkDegradation{{Role: RoleSim, Duration: 1, Factor: 1.5}}}, false},
		{"degradation negative duration", FaultPlan{
			Degradations: []LinkDegradation{{Role: RoleSim, Duration: -1, Factor: 0.5}}}, false},
		{"timeout negative extra", FaultPlan{
			Timeouts: []TimeoutWindow{{Role: RoleSim, Duration: 1, Extra: -0.01}}}, false},
		{"loss prob above one", FaultPlan{
			MessageLoss: []TransientWindow{{Role: RoleStaging, Duration: 1, Prob: 1.5}}}, false},
		{"busy negative prob", FaultPlan{
			ServerBusy: []TransientWindow{{Role: RoleStaging, Duration: 1, Prob: -0.5}}}, false},
		{"opfault negative duration", FaultPlan{
			OpFaults: []TransientWindow{{Role: RoleStaging, Duration: -1, Prob: 0.5}}}, false},
		{"index fine when pool empty", FaultPlan{
			MessageLoss: []TransientWindow{{Role: RoleStaging, Index: 99, Duration: 1, Prob: 0.5}}}, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			p := pools
			if tc.name == "index fine when pool empty" {
				p.Staging = 0
			}
			err := tc.plan.Validate(p)
			if tc.ok && err != nil {
				t.Fatalf("Validate: unexpected error %v", err)
			}
			if !tc.ok && err == nil {
				t.Fatalf("Validate accepted a malformed plan")
			}
		})
	}
}

// TestRunRejectsMalformedPlansAndPolicies: Run surfaces plan and policy
// validation as setup errors, not mid-run misbehavior.
func TestRunRejectsMalformedPlansAndPolicies(t *testing.T) {
	cfg := chaosBase()
	cfg.Faults = &FaultPlan{MessageLoss: []TransientWindow{{Role: RoleStaging, Duration: 1, Prob: 2}}}
	if _, err := Run(cfg); err == nil {
		t.Error("Run accepted an out-of-range loss probability")
	}
	cfg = chaosBase()
	cfg.Retry = retry.Policy{MaxAttempts: 3, BaseBackoff: -1}
	if _, err := Run(cfg); err == nil {
		t.Error("Run accepted a negative backoff")
	}
}
