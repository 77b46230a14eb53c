// Package chaos is the fault-injection subsystem: a deterministic,
// seed-driven injector that schedules failures as first-class simulation
// events — whole-node crashes and reboots, individual GPU losses (ECC-style
// device failure that kills resident pods), telemetry dropouts (a node
// monitor stops reporting, so the head node's view of it goes stale), and
// network degradation on the stats path (lost or delayed heartbeats).
//
// The injector draws every fault and repair time from its own seeded RNG,
// never from the engine's, so attaching a zero-fault Plan to a simulation
// leaves its event stream — and therefore every experiment table —
// bit-identical to a run without chaos at all. With faults enabled the same
// plan seed replays the same fault schedule, which is what makes recovery
// experiments regression-testable.
package chaos

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
	"time"

	"kubeknots/internal/sim"
)

// FaultKind classifies one injected failure domain.
type FaultKind string

// Fault kinds, in Plan/String order.
const (
	KindNode      FaultKind = "node"      // whole node crashes and reboots
	KindGPU       FaultKind = "gpu"       // single device fails and recovers
	KindTelemetry FaultKind = "telemetry" // node monitor stops answering
	// KindController kills and restarts the control plane: scheduling and
	// harvest decisions pause while the data plane keeps running.
	KindController FaultKind = "controller"
	KindNetwork    FaultKind = "net" // stats-path latency / heartbeat loss
)

// FaultRate is one failure domain's exponential failure/repair process.
// MTTF is the mean healthy interval before a fault fires; MTTR the mean
// outage length. MTTF <= 0 disables the domain.
type FaultRate struct {
	MTTF sim.Time
	MTTR sim.Time
}

// Enabled reports whether the domain injects anything.
func (r FaultRate) Enabled() bool { return r.MTTF > 0 }

// NetworkFault degrades the stats path: every heartbeat is lost with
// probability ErrRate, and surviving samples are delayed by Latency (so the
// head node's windows trail reality). The zero value is a healthy network.
type NetworkFault struct {
	Latency sim.Time
	ErrRate float64
}

// Enabled reports whether the network is degraded at all.
func (n NetworkFault) Enabled() bool { return n.Latency > 0 || n.ErrRate > 0 }

// Plan is a complete, replayable fault schedule configuration.
type Plan struct {
	// Seed drives the injector's private RNG. 0 is a valid seed.
	Seed int64
	// Node is the whole-node crash/reboot process (per node).
	Node FaultRate
	// GPU is the single-device failure process (per device).
	GPU FaultRate
	// Telemetry is the monitor-dropout process (per node).
	Telemetry FaultRate
	// Controller is the control-plane crash/restart process (one control
	// plane per cluster, so at most one outage at a time).
	Controller FaultRate
	// Network degrades the stats path for the whole run.
	Network NetworkFault
}

// Zero reports whether the plan injects nothing — the identity plan.
func (p Plan) Zero() bool {
	return !p.Node.Enabled() && !p.GPU.Enabled() && !p.Telemetry.Enabled() &&
		!p.Controller.Enabled() && !p.Network.Enabled()
}

// Validate rejects plans the injector cannot schedule deterministically.
func (p Plan) Validate() error {
	for _, d := range []struct {
		kind FaultKind
		rate FaultRate
	}{{KindNode, p.Node}, {KindGPU, p.GPU}, {KindTelemetry, p.Telemetry},
		{KindController, p.Controller}} {
		if d.rate.MTTF < 0 || d.rate.MTTR < 0 {
			return fmt.Errorf("chaos: %s: negative MTTF/MTTR", d.kind)
		}
		if d.rate.Enabled() && d.rate.MTTR <= 0 {
			return fmt.Errorf("chaos: %s: MTTF set but MTTR missing", d.kind)
		}
		if !d.rate.Enabled() && d.rate.MTTR > 0 {
			return fmt.Errorf("chaos: %s: MTTR set but MTTF missing", d.kind)
		}
	}
	if p.Network.Latency < 0 {
		return fmt.Errorf("chaos: net: negative latency")
	}
	if math.IsNaN(p.Network.ErrRate) || p.Network.ErrRate < 0 || p.Network.ErrRate >= 1 {
		return fmt.Errorf("chaos: net: error rate must be in [0,1)")
	}
	return nil
}

// String renders the plan in the syntax ParsePlan accepts; parsing the
// result yields the same plan (the fuzz target checks this round-trip).
// A zero plan renders as "none".
func (p Plan) String() string {
	var parts []string
	rate := func(kind FaultKind, r FaultRate) {
		if r.Enabled() {
			parts = append(parts, fmt.Sprintf("%s:mttf=%s,mttr=%s",
				kind, formatDur(r.MTTF), formatDur(r.MTTR)))
		}
	}
	rate(KindNode, p.Node)
	rate(KindGPU, p.GPU)
	rate(KindTelemetry, p.Telemetry)
	rate(KindController, p.Controller)
	if p.Network.Enabled() {
		net := []string{}
		if p.Network.Latency > 0 {
			net = append(net, "latency="+formatDur(p.Network.Latency))
		}
		if p.Network.ErrRate > 0 {
			net = append(net, "errors="+strconv.FormatFloat(p.Network.ErrRate, 'g', -1, 64))
		}
		parts = append(parts, string(KindNetwork)+":"+strings.Join(net, ","))
	}
	if len(parts) == 0 {
		return "none"
	}
	return strings.Join(parts, ";")
}

// formatDur renders a sim duration in time.Duration syntax.
func formatDur(t sim.Time) string {
	return (time.Duration(t) * time.Millisecond).String()
}

// parseDur parses a time.Duration-style literal into simulated time,
// rejecting sub-millisecond, negative, and overflowing values.
func parseDur(s string) (sim.Time, error) {
	d, err := time.ParseDuration(s)
	if err != nil {
		return 0, err
	}
	if d < 0 {
		return 0, fmt.Errorf("negative duration %q", s)
	}
	if d > 0 && d < time.Millisecond {
		return 0, fmt.Errorf("duration %q below 1ms resolution", s)
	}
	return sim.Time(d / time.Millisecond), nil
}

// ParsePlan parses a plan spec of semicolon-separated fault clauses:
//
//	node:mttf=60s,mttr=10s;gpu:mttf=5m,mttr=30s;telemetry:mttf=30s,mttr=5s;net:latency=50ms,errors=0.05
//
// Durations use Go syntax (ms resolution). "", "none", and "off" are the
// zero plan. Each kind may appear at most once. The seed is not part of the
// spec; callers set Plan.Seed separately.
func ParsePlan(spec string) (Plan, error) {
	var p Plan
	spec = strings.TrimSpace(spec)
	if spec == "" || spec == "none" || spec == "off" {
		return p, nil
	}
	seen := map[FaultKind]bool{}
	for _, clause := range strings.Split(spec, ";") {
		clause = strings.TrimSpace(clause)
		if clause == "" {
			continue
		}
		kind, args, ok := strings.Cut(clause, ":")
		if !ok {
			return Plan{}, fmt.Errorf("chaos: clause %q missing ':'", clause)
		}
		k := FaultKind(strings.TrimSpace(kind))
		if seen[k] {
			return Plan{}, fmt.Errorf("chaos: duplicate clause %q", k)
		}
		seen[k] = true
		kv, err := parseArgs(args)
		if err != nil {
			return Plan{}, fmt.Errorf("chaos: clause %q: %w", k, err)
		}
		switch k {
		case KindNode, KindGPU, KindTelemetry, KindController:
			r, err := rateFromArgs(kv)
			if err != nil {
				return Plan{}, fmt.Errorf("chaos: clause %q: %w", k, err)
			}
			switch k {
			case KindNode:
				p.Node = r
			case KindGPU:
				p.GPU = r
			case KindTelemetry:
				p.Telemetry = r
			default:
				p.Controller = r
			}
		case KindNetwork:
			for key, val := range kv {
				switch key {
				case "latency":
					if p.Network.Latency, err = parseDur(val); err != nil {
						return Plan{}, fmt.Errorf("chaos: net latency: %w", err)
					}
				case "errors":
					f, err := strconv.ParseFloat(val, 64)
					if err != nil {
						return Plan{}, fmt.Errorf("chaos: net errors: %w", err)
					}
					p.Network.ErrRate = f
				default:
					return Plan{}, fmt.Errorf("chaos: net: unknown key %q", key)
				}
			}
		default:
			return Plan{}, fmt.Errorf("chaos: unknown fault kind %q", k)
		}
	}
	if err := p.Validate(); err != nil {
		return Plan{}, err
	}
	return p, nil
}

// parseArgs splits "k1=v1,k2=v2" into a map, rejecting duplicates.
func parseArgs(s string) (map[string]string, error) {
	out := map[string]string{}
	for _, kv := range strings.Split(s, ",") {
		kv = strings.TrimSpace(kv)
		if kv == "" {
			continue
		}
		key, val, ok := strings.Cut(kv, "=")
		if !ok {
			return nil, fmt.Errorf("argument %q missing '='", kv)
		}
		key = strings.TrimSpace(key)
		if _, dup := out[key]; dup {
			return nil, fmt.Errorf("duplicate argument %q", key)
		}
		out[key] = strings.TrimSpace(val)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("no arguments")
	}
	return out, nil
}

// rateFromArgs builds a FaultRate from mttf/mttr keys.
func rateFromArgs(kv map[string]string) (FaultRate, error) {
	var r FaultRate
	var err error
	keys := make([]string, 0, len(kv))
	for k := range kv {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, key := range keys {
		switch key {
		case "mttf":
			if r.MTTF, err = parseDur(kv[key]); err != nil {
				return FaultRate{}, err
			}
		case "mttr":
			if r.MTTR, err = parseDur(kv[key]); err != nil {
				return FaultRate{}, err
			}
		default:
			return FaultRate{}, fmt.Errorf("unknown key %q", key)
		}
	}
	return r, nil
}
