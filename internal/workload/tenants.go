package workload

import (
	"errors"
	"fmt"
	"sort"

	"twochains/internal/core"
	"twochains/internal/mailbox"
	"twochains/internal/sim"
	"twochains/internal/tc"
	"twochains/internal/tenant"
)

// AdmitSpec is a tenant's token-bucket admission configuration in
// scenario form (see tenant.Admission for the semantics).
type AdmitSpec struct {
	// RatePerSec is the sustained admission rate per sender node in
	// messages per simulated second (> 0).
	RatePerSec float64
	// Burst is the bucket capacity in messages (0 = default).
	Burst float64
	// Defer rejects with a retry hint instead of dropping; the driver
	// honours the hint and re-issues the burst.
	Defer bool
	// StallPenalty deducts tokens per newly observed credit stall on the
	// issuing channel — congestion feedback from the mailbox telemetry.
	StallPenalty float64
}

// TenantSpec declares one tenant of a multi-tenant scenario.
type TenantSpec struct {
	Name string
	// Weight is the tenant's fair-share weight at every receiving node
	// (>= 1).
	Weight int
	// Load scales the tenant's open-loop Poisson rates (0 = 1.0) — the
	// overload-composition knob: the same phase list at 2x, 10x, ...
	Load float64
	// Admit enables token-bucket admission control (nil = none).
	Admit *AdmitSpec
	// Untrusted prices an isolation boundary per invocation at the
	// receiver (model.TenantIsolationCost).
	Untrusted bool
	// Phases is the tenant's own phase list; empty reuses the
	// scenario-level phases. RIED swaps are not supported inside tenant
	// phases, the hotspot pattern's built-in one included (set
	// Scenario.DisableSwap), and neither are node fail/rejoin.
	Phases []Phase
}

// TenantResult is one tenant's slice of a multi-tenant run.
type TenantResult struct {
	Name   string
	Weight int
	// Planned counts the tenant's planned messages; Serviced those that
	// completed receiver-side service (handler faults included); Dropped
	// and Deferred the admission outcomes (Deferred counts deferral
	// events — one burst can defer more than once); Errors the
	// receiver-side failures.
	Planned  int
	Serviced int
	Dropped  int
	Deferred int
	Errors   int
	// GoodputPerSec is the tenant's serviced messages per simulated
	// second inside the run's overlap window (the fair-share comparison
	// metric); RatePerSec the whole-run average.
	GoodputPerSec float64
	RatePerSec    float64
	// P99Latency is the 99th percentile of issue-to-delivery simulated
	// latency (credit stalls under overload push it up); LastService the
	// tenant's final service stamp.
	P99Latency  sim.Duration
	LastService sim.Duration
	// Phases are the tenant's per-phase results.
	Phases []PhaseResult
}

// laneSpec is one lane's program: its resolved phase specs and, for a
// tenant lane, the tenant to register.
type laneSpec struct {
	ten   *tenant.Config // nil for the default lane
	specs []phaseSpec
}

// resolveLanes resolves the scenario's lanes: the one default lane over
// the scenario-level phases, or one lane per tenant. It validates the
// tenant surface and resolves each tenant's phase list (its own, or the
// scenario-level base), scaling open-loop rates by Load.
func (sc *Scenario) resolveLanes(base []phaseSpec) ([]laneSpec, error) {
	if len(sc.Tenants) == 0 {
		return []laneSpec{{specs: base}}, nil
	}
	lanes := make([]laneSpec, len(sc.Tenants))
	seen := map[string]bool{}
	for i, ts := range sc.Tenants {
		at := func(f string) string { return fmt.Sprintf("Tenants[%d].%s", i, f) }
		if ts.Name == "" {
			return nil, &ScenarioError{Field: at("Name"), Reason: "empty tenant name"}
		}
		if seen[ts.Name] {
			return nil, &ScenarioError{Field: at("Name"), Reason: fmt.Sprintf("duplicate tenant %q", ts.Name)}
		}
		seen[ts.Name] = true
		if ts.Weight < 1 {
			return nil, &ScenarioError{Field: at("Weight"),
				Reason: fmt.Sprintf("fair-share weight must be >= 1, have %d", ts.Weight)}
		}
		if ts.Load < 0 {
			return nil, &ScenarioError{Field: at("Load"), Reason: fmt.Sprintf("negative load factor %v", ts.Load)}
		}
		load := ts.Load
		if load == 0 {
			load = 1
		}
		var specs []phaseSpec
		if len(ts.Phases) > 0 {
			tsc := *sc
			tsc.Phases = ts.Phases
			tsc.Tenants = nil
			var err error
			specs, err = tsc.resolvePhases()
			if err != nil {
				var se *ScenarioError
				if errors.As(err, &se) {
					return nil, &ScenarioError{Field: fmt.Sprintf("Tenants[%d].%s", i, se.Field), Reason: se.Reason}
				}
				return nil, err
			}
			for j := range specs {
				specs[j].fieldPrefix = fmt.Sprintf("Tenants[%d].", i) + specs[j].fieldPrefix
			}
		} else {
			// The tenant rides the scenario-level phases; copy so Load
			// scaling below stays per-tenant.
			specs = append([]phaseSpec(nil), base...)
		}
		for j := range specs {
			spec := &specs[j]
			if spec.swap != nil {
				return nil, &ScenarioError{Field: spec.at("Swap"),
					Reason: "RIED swaps are not supported in tenant phases"}
			}
			if spec.traffic == string(Hotspot) && !sc.DisableSwap {
				return nil, &ScenarioError{Field: spec.trafficField(),
					Reason: "the hotspot pattern's built-in RIED swap is not supported in tenant phases (set DisableSwap)"}
			}
			if len(spec.fail) > 0 || len(spec.rejoin) > 0 {
				return nil, &ScenarioError{Field: spec.at("Fail"),
					Reason: "node fail/rejoin is not supported in multi-tenant mode"}
			}
			switch spec.arrival.Kind {
			case Poisson:
				spec.arrival.RatePerSec *= load
			case MMPP:
				spec.arrival.RatePerSec *= load
				spec.arrival.BurstRatePerSec *= load
			}
		}
		cfg := &tenant.Config{Name: ts.Name, Weight: ts.Weight, Untrusted: ts.Untrusted}
		if ts.Admit != nil {
			if !(ts.Admit.RatePerSec > 0) {
				return nil, &ScenarioError{Field: at("Admit.RatePerSec"),
					Reason: fmt.Sprintf("admission rate must be > 0, have %v", ts.Admit.RatePerSec)}
			}
			pol := tenant.Drop
			if ts.Admit.Defer {
				pol = tenant.Defer
			}
			cfg.Admission = &tenant.Admission{
				RatePerSec:   ts.Admit.RatePerSec,
				Burst:        ts.Admit.Burst,
				Policy:       pol,
				StallPenalty: ts.Admit.StallPenalty,
			}
		}
		lanes[i] = laneSpec{ten: cfg, specs: specs}
	}
	return lanes, nil
}

// hookTenantChannel instruments a freshly created tenant channel: the
// lane counts its progress at service completion, and service stamps
// and failure counts accrue to the receiving shard's sample store.
func (r *runner) hookTenantChannel(l *lane, dst int, ch *core.Channel) {
	shard := r.sys.ShardOf(dst)
	ch.Recv.OnProcessed = func(_ *mailbox.Delivery, t sim.Time) {
		l.svc[shard] = append(l.svc[shard], t)
		r.done(l, 1)
	}
	ch.Recv.OnError = func(d *mailbox.Delivery, _ error) {
		l.errs[shard]++
		if d == nil {
			// The frame never parsed, so OnProcessed will not fire for it;
			// count it here or the accounting hangs.
			r.done(l, 1)
		}
	}
}

// sample records a tenant call's issue-to-delivery latency on the
// issuing shard; the default lane keeps no samples.
func (l *lane) sample(shard int, res tc.Result, at sim.Time) {
	if l.lat != nil && res.Err == nil && res.Delivered > 0 {
		l.lat[shard] = append(l.lat[shard], res.Delivered.Sub(at))
	}
}

// reportTenants fills the per-tenant results and the overlap window of a
// multi-tenant run.
func (r *runner) reportTenants() {
	res := r.res
	// The overlap window: every tenant's servicing overlaps in [0, W], so
	// goodput inside it compares fair shares instead of drain tails.
	window := sim.Time(0)
	for i, l := range r.lanes {
		last := sim.Time(0)
		for _, stamps := range l.svc {
			for _, t := range stamps {
				if t > last {
					last = t
				}
			}
		}
		if i == 0 || last < window {
			window = last
		}
	}
	res.OverlapWindow = sim.Duration(window)

	for _, l := range r.lanes {
		st := l.ten.Stats()
		tr := TenantResult{
			Name: l.ten.Name, Weight: l.ten.Weight,
			Planned:  l.cum[len(l.cum)-1],
			Dropped:  int(st.Dropped),
			Deferred: int(st.Deferred),
			Phases:   l.phases,
		}
		inWindow := 0
		var last sim.Time
		for _, stamps := range l.svc {
			for _, t := range stamps {
				tr.Serviced++
				if t <= window {
					inWindow++
				}
				if t > last {
					last = t
				}
			}
		}
		for _, e := range l.errs {
			tr.Errors += int(e)
		}
		tr.LastService = sim.Duration(last)
		if secs := sim.Duration(window).Seconds(); secs > 0 {
			tr.GoodputPerSec = float64(inWindow) / secs
		}
		if secs := res.SimTime.Seconds(); secs > 0 {
			tr.RatePerSec = float64(tr.Serviced) / secs
		}
		var lats []sim.Duration
		for _, ls := range l.lat {
			lats = append(lats, ls...)
		}
		if len(lats) > 0 {
			sort.Slice(lats, func(a, b int) bool { return lats[a] < lats[b] })
			idx := (99*len(lats) + 99) / 100
			if idx > len(lats) {
				idx = len(lats)
			}
			tr.P99Latency = lats[idx-1]
		}
		res.Tenants = append(res.Tenants, tr)
	}
}
