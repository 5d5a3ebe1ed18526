package patchwork

import (
	"strings"
	"testing"

	"repro/internal/sim"
	"repro/internal/switchsim"
	"repro/internal/testbed"
	"repro/internal/units"
)

// --- NicePolicy (future-work "nice factor") ---

func TestNicePolicyValidate(t *testing.T) {
	good := &NicePolicy{ScaleDownFreeNICs: 0, ScaleUpFreeNICs: 2}
	if err := good.Validate(); err != nil {
		t.Errorf("good policy rejected: %v", err)
	}
	bad := &NicePolicy{ScaleDownFreeNICs: 3, ScaleUpFreeNICs: 2}
	if err := bad.Validate(); err == nil {
		t.Error("down >= up should fail")
	}
	cfg := quickConfig()
	cfg.Nice = bad
	if err := cfg.Validate(); err == nil {
		t.Error("config with bad nice policy should fail validation")
	}
}

func TestNiceScalesDownUnderPressure(t *testing.T) {
	env := newEnv(t, 1)
	site := env.fed.Sites()[0] // 3 dedicated NICs
	cfg := quickConfig()
	cfg.InstancesWanted = 2
	cfg.Runs = 6
	cfg.Nice = &NicePolicy{ScaleDownFreeNICs: 0, ScaleUpFreeNICs: 2}

	// Mid-run, another experiment grabs the remaining NIC, dropping free
	// NICs to 0 and triggering a scale-down at the next cycle.
	var hog *testbed.Sliver
	env.k.After(6*sim.Second, func() {
		var err error
		hog, err = site.Allocate(env.k.Now(), testbed.SliceRequest{
			Name: "hog",
			VMs:  []testbed.VMRequest{{DedicatedNICs: 1, Cores: 2, RAM: units.GB, Storage: units.GB}},
		})
		if err != nil {
			t.Errorf("hog allocation: %v", err)
		}
	})
	prof := runProfile(t, env, cfg)
	b := prof.Bundles[0]
	if len(b.ScaleEvents) == 0 {
		t.Fatalf("no scale events; logs:\n%s", logText(b))
	}
	down := false
	for _, ev := range b.ScaleEvents {
		if ev.To < ev.From {
			down = true
			if !strings.Contains(ev.Reason, "free NICs") {
				t.Errorf("reason = %q", ev.Reason)
			}
		}
	}
	if !down {
		t.Errorf("no scale-down event: %v", b.ScaleEvents)
	}
	if hog != nil {
		_ = site.Release(hog)
	}
	// All of Patchwork's own slivers must still be released at the end.
	if site.ActiveSlivers() != 0 {
		t.Errorf("slivers leaked after nice scaling: %d", site.ActiveSlivers())
	}
}

func TestNiceScalesBackUp(t *testing.T) {
	env := newEnv(t, 1)
	site := env.fed.Sites()[0]
	// Hold 2 of 3 NICs so Patchwork starts with 1 listener (back-off),
	// then release them mid-run so the nice controller can grow back.
	hog, err := site.Allocate(0, testbed.SliceRequest{
		Name: "hog",
		VMs:  []testbed.VMRequest{{DedicatedNICs: 2, Cores: 2, RAM: units.GB, Storage: units.GB}},
	})
	if err != nil {
		t.Fatal(err)
	}
	cfg := quickConfig()
	cfg.InstancesWanted = 2
	cfg.Runs = 6
	cfg.Nice = &NicePolicy{ScaleDownFreeNICs: 0, ScaleUpFreeNICs: 2}
	env.k.After(6*sim.Second, func() { _ = site.Release(hog) })
	prof := runProfile(t, env, cfg)
	b := prof.Bundles[0]
	up := false
	for _, ev := range b.ScaleEvents {
		if ev.To > ev.From {
			up = true
		}
	}
	if !up {
		t.Errorf("no scale-up event: %v (logs:\n%s)", b.ScaleEvents, logText(b))
	}
	if site.ActiveSlivers() != 0 {
		t.Errorf("slivers leaked: %d", site.ActiveSlivers())
	}
}

func TestNiceNeverDropsBelowFloor(t *testing.T) {
	env := newEnv(t, 1)
	site := env.fed.Sites()[0]
	// Site permanently starved: free NICs 0 after Patchwork takes one.
	if _, err := site.Allocate(0, testbed.SliceRequest{
		Name: "hog",
		VMs:  []testbed.VMRequest{{DedicatedNICs: 2, Cores: 2, RAM: units.GB, Storage: units.GB}},
	}); err != nil {
		t.Fatal(err)
	}
	cfg := quickConfig()
	cfg.InstancesWanted = 1
	cfg.Runs = 5
	cfg.Nice = &NicePolicy{ScaleDownFreeNICs: 1, ScaleUpFreeNICs: 3}
	prof := runProfile(t, env, cfg)
	b := prof.Bundles[0]
	for _, ev := range b.ScaleEvents {
		if ev.To < 1 {
			t.Errorf("scaled below floor: %v", ev)
		}
	}
	// The profile still completes with its single listener.
	if b.Outcome != OutcomeSuccess {
		t.Errorf("outcome = %v (%s)", b.Outcome, b.FailureReason)
	}
	if len(b.Pcaps) == 0 {
		t.Error("no captures despite holding the floor listener")
	}
}

func logText(b Bundle) string {
	var sb strings.Builder
	for _, e := range b.Logs {
		sb.WriteString(e.String())
		sb.WriteByte('\n')
	}
	return sb.String()
}

// --- MirrorScheduler (design-limitation #1: sharing mirrored ports) ---

func schedulerFixture(t *testing.T) (*sim.Kernel, *switchsim.Switch, *MirrorScheduler) {
	t.Helper()
	k := sim.NewKernel()
	sw := switchsim.New("S", k)
	for _, p := range []string{"P1", "P2", "P3", "P4"} {
		sw.AddPort(p, switchsim.RoleDownlink, 100*units.Gbps)
	}
	return k, sw, NewMirrorScheduler(k, sw)
}

func TestSchedulerSerializesUsers(t *testing.T) {
	k, sw, ms := schedulerFixture(t)
	var grants []string
	var releases []string
	mkLease := func(user, egress string) *MirrorLease {
		return &MirrorLease{
			User: user, Mirrored: "P1", Dirs: switchsim.DirBoth, Egress: egress,
			Duration: 10 * sim.Second,
			OnGrant: func(sess *switchsim.MirrorSession) {
				grants = append(grants, user)
				if sess.Mirrored != "P1" {
					t.Errorf("session port = %s", sess.Mirrored)
				}
			},
			OnRelease: func() { releases = append(releases, user) },
		}
	}
	if err := ms.Request(mkLease("alice", "P2")); err != nil {
		t.Fatal(err)
	}
	if err := ms.Request(mkLease("bob", "P3")); err != nil {
		t.Fatal(err)
	}
	if err := ms.Request(mkLease("carol", "P4")); err != nil {
		t.Fatal(err)
	}
	if ms.ActiveUser("P1") != "alice" {
		t.Errorf("active = %q", ms.ActiveUser("P1"))
	}
	if ms.PendingFor("P1") != 2 {
		t.Errorf("pending = %d", ms.PendingFor("P1"))
	}
	k.Run()
	want := []string{"alice", "bob", "carol"}
	if strings.Join(grants, ",") != strings.Join(want, ",") {
		t.Errorf("grant order = %v", grants)
	}
	if strings.Join(releases, ",") != strings.Join(want, ",") {
		t.Errorf("release order = %v", releases)
	}
	if len(sw.Mirrors()) != 0 {
		t.Error("mirrors left running")
	}
	if ms.Granted != 3 || ms.Queued != 2 {
		t.Errorf("stats = granted %d queued %d", ms.Granted, ms.Queued)
	}
}

func TestSchedulerLeaseDurationsRespected(t *testing.T) {
	k, sw, ms := schedulerFixture(t)
	var cloned [2]uint64
	grantTimes := map[string]sim.Time{}
	for i, user := range []string{"u0", "u1"} {
		i := i
		user := user
		err := ms.Request(&MirrorLease{
			User: user, Mirrored: "P1", Dirs: switchsim.DirRx, Egress: "P2",
			Duration: 5 * sim.Second,
			OnGrant: func(sess *switchsim.MirrorSession) {
				grantTimes[user] = k.Now()
				// Count clones attributable to this user's window.
				cloned[i] = sess.Cloned
			},
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	// Traffic throughout.
	tick := k.Every(100*sim.Millisecond, func(sim.Time) {
		_ = sw.Transit("P1", switchsim.DirRx, switchsim.Frame{Size: 1000})
	})
	k.RunUntil(12 * sim.Second)
	tick.Stop()
	k.Run()
	if grantTimes["u0"] != 0 {
		t.Errorf("u0 granted at %v", grantTimes["u0"])
	}
	if grantTimes["u1"] != 5*sim.Second {
		t.Errorf("u1 granted at %v, want 5s", grantTimes["u1"])
	}
}

func TestSchedulerCancelPending(t *testing.T) {
	k, _, ms := schedulerFixture(t)
	l1 := &MirrorLease{User: "a", Mirrored: "P1", Dirs: switchsim.DirRx, Egress: "P2", Duration: sim.Second}
	l2 := &MirrorLease{User: "b", Mirrored: "P1", Dirs: switchsim.DirRx, Egress: "P3", Duration: sim.Second}
	granted := false
	l2.OnGrant = func(*switchsim.MirrorSession) { granted = true }
	if err := ms.Request(l1); err != nil {
		t.Fatal(err)
	}
	if err := ms.Request(l2); err != nil {
		t.Fatal(err)
	}
	if !ms.Cancel(l2) {
		t.Error("cancel pending should succeed")
	}
	if ms.Cancel(l2) {
		t.Error("double cancel should fail")
	}
	if ms.Cancel(l1) {
		t.Error("cancelling an active lease should fail")
	}
	k.Run()
	if granted {
		t.Error("cancelled lease was granted")
	}
}

func TestSchedulerInvalidRequests(t *testing.T) {
	_, _, ms := schedulerFixture(t)
	if err := ms.Request(&MirrorLease{User: "x"}); err == nil {
		t.Error("empty lease should fail")
	}
	if err := ms.Request(&MirrorLease{User: "x", Mirrored: "P9", Egress: "P2", Duration: sim.Second}); err == nil {
		t.Error("unknown port should fail")
	}
}

func TestSchedulerIndependentPorts(t *testing.T) {
	k, _, ms := schedulerFixture(t)
	users := map[string]bool{}
	for _, spec := range []struct{ user, port, egress string }{
		{"a", "P1", "P2"}, {"b", "P3", "P4"},
	} {
		spec := spec
		err := ms.Request(&MirrorLease{
			User: spec.user, Mirrored: spec.port, Dirs: switchsim.DirRx,
			Egress: spec.egress, Duration: sim.Second,
			OnGrant: func(*switchsim.MirrorSession) { users[spec.user] = true },
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	// Both granted immediately: different ports don't queue behind each
	// other.
	if !users["a"] || !users["b"] {
		t.Errorf("grants = %v", users)
	}
	k.Run()
}
