package pipeline

import (
	"fmt"
	"sort"
	"sync"
	"time"
)

// This file is the fleet capacity layer's control plane: a frame-budget
// admission controller that sheds and readmits WHOLE vehicle streams when
// the machine saturates (the paper's 100 ms frame constraint is per frame —
// once every co-resident stream misses it, nobody is driving autonomously),
// plus the phase barrier that paces co-resident streams' frame admission on
// one fleet beat, so no stream runs ahead and crowds the others off the
// cores.
//
// Determinism contract: the controller reads each delivered frame's latency
// on the pipeline's clock, so under DeadlinePolicy.Virtual its entire
// shed/readmit sequence is a pure function of (configs, seeds). The trick is
// that decisions are made over per-vehicle EPOCH BUCKETS — the worst latency
// of each closed period (control.go) of the vehicle's own delivered-frame
// stream — and a decision fires only when every admitted stream has an
// unconsumed bucket. Which real moment a decision happens at varies with
// scheduling; which frames feed it cannot: a vehicle's stream is the same
// ordered, deterministic sequence in every run (shedding pauses a stream,
// it never drops frames from it), so bucket k of vehicle v holds the same
// frames in every run, and by induction every decision sees identical
// inputs and the event history is bitwise-reproducible. TestAdmissionDeterministicAcross-
// Executors pins this across the Step and Runner executors.

// AdmissionConfig parameterizes the fleet admission controller.
type AdmissionConfig struct {
	// Target is the frame deadline the control law judges the worst
	// bucket of each decision against; 0 selects DefaultFrameBudget (the
	// paper's 100 ms). Shedding begins at 0.7 of it, BEFORE a frame crosses
	// the deadline, so the controller has authority while frames still
	// meet it.
	Target time.Duration
	// MaxAdmitted caps concurrently admitted vehicles (0 = uncapped). The
	// cap is enforced immediately at registration time — the static
	// -max-vehicles form of admission control — and respected by readmits.
	MaxAdmitted int
}

// AdmissionEvent is one shed or readmit in the controller's history.
type AdmissionEvent struct {
	// Decision is the decision epoch the event was taken at (0 =
	// registration-time MaxAdmitted enforcement).
	Decision int
	Vehicle  int
	// Shed is true for a shed, false for a readmit.
	Shed bool
	// Pressure is the signal value the decision saw: the worst latency in
	// its buckets divided by the target.
	Pressure float64
}

func (e AdmissionEvent) String() string {
	verb := "readmit"
	if e.Shed {
		verb = "shed"
	}
	return fmt.Sprintf("decision %d: %s vehicle %d (pressure %.2f)", e.Decision, verb, e.Vehicle, e.Pressure)
}

// FleetAdmission is the fleet's stream admission controller and phase
// barrier. Vehicles register once, their runners consult it before every
// frame (through their vehicleGate), and every delivered frame is folded in
// through Observe. All methods are safe for concurrent use.
type FleetAdmission struct {
	maxAdm   int
	shedding bool // false: pure phase-locker, no decisions
	phase    bool

	mu        sync.Mutex
	cond      *sync.Cond
	veh       map[int]*admVehicle
	order     []int // registered vehicle IDs, ascending — all iteration is in this order
	waiting   int   // streams parked at the phase barrier
	gen       uint64
	decisions int
	law       controlLaw
	history   []AdmissionEvent
}

// admVehicle is one registered stream's controller state. Its lifetime has
// TWO ends, because admission (gate) and observation (delivery) are up to
// an in-flight window apart: admitting clears when the stream stops asking
// for frames (SRC exhausted, Stop) — a wall-clock moment that governs only
// the phase barrier, never a decision; observing clears when the stream's
// final delivered frame has been folded in (Leave) — a stream-position
// moment. Even then the stream stays in the decision barrier until its
// queued buckets are consumed (live), so which streams a decision averages
// over never depends on who finished first.
type admVehicle struct {
	id        int
	admitting bool // stream still admits frames (Register .. gate leave)
	observing bool // deliveries still pending (Register .. Leave)
	shed      bool
	ended     bool // told to end: Admit returns false
	sheds     int  // lifetime shed count
	shedAt    int  // history index of the latest shed: readmission goes oldest first

	// The open period and the closed, not-yet-consumed buckets behind it,
	// each a period's worst latency (ms).
	period  periodWorst
	buckets []float64
}

// newFleetAdmission builds a controller.
func newFleetAdmission(cfg AdmissionConfig, shedding, phase bool) (*FleetAdmission, error) {
	law, err := newControlLaw("admission", cfg.Target)
	if err != nil {
		return nil, err
	}
	if cfg.MaxAdmitted < 0 {
		return nil, fmt.Errorf("pipeline: MaxAdmitted %d must be >= 0", cfg.MaxAdmitted)
	}
	a := &FleetAdmission{
		law:      law,
		maxAdm:   cfg.MaxAdmitted,
		shedding: shedding,
		phase:    phase,
		veh:      make(map[int]*admVehicle),
	}
	a.cond = sync.NewCond(&a.mu)
	return a, nil
}

// Register adds a vehicle stream to the controller, admitted unless the
// MaxAdmitted cap forces an immediate shed of the highest-ID stream.
// Registering an existing ID resets that vehicle (fleet IDs never recycle).
func (a *FleetAdmission) Register(vehicle int) {
	a.mu.Lock()
	defer a.mu.Unlock()
	if _, ok := a.veh[vehicle]; !ok {
		a.order = append(a.order, vehicle)
		sort.Ints(a.order)
	}
	a.veh[vehicle] = &admVehicle{id: vehicle, admitting: true, observing: true}
	if a.maxAdm > 0 {
		// Registration-time cap: no load signal exists yet, so the
		// highest ID goes.
		for ps := a.participantsLocked(); len(ps) > a.maxAdm; ps = ps[:len(ps)-1] {
			a.shedLocked(ps[len(ps)-1], 0)
		}
	}
	a.membershipChangedLocked()
}

// Leave retires a vehicle's stream from the controller. Call it only once
// the stream's LAST delivered frame has been observed (the fleet calls it
// from the consumer after the result channel closes): leaving is then a
// position in the vehicle's own stream, not a wall-clock moment. The
// stream's completed, unconsumed buckets keep their seat in the decision
// barrier until decisions consume them, so a stream that finished early
// feeds exactly the decisions it would have fed finishing late.
func (a *FleetAdmission) Leave(vehicle int) {
	a.mu.Lock()
	defer a.mu.Unlock()
	st := a.veh[vehicle]
	if st == nil || !st.observing {
		return
	}
	st.observing = false
	st.admitting = false
	// The departure may unblock decisions the barrier was holding for this
	// stream's next bucket.
	a.decideLocked()
	a.membershipChangedLocked()
}

// leaveAdmitting marks a stream as done ASKING for frames (SRC exhausted or
// stopped) while its in-flight deliveries may still be pending: it exits
// the phase barrier, but stays in the decision barrier until Leave. This
// half is wall-timed and deliberately has no influence on shed/readmit
// decisions.
func (a *FleetAdmission) leaveAdmitting(vehicle int) {
	a.mu.Lock()
	defer a.mu.Unlock()
	st := a.veh[vehicle]
	if st == nil || !st.admitting {
		return
	}
	st.admitting = false
	a.membershipChangedLocked()
}

// Admitted reports whether the vehicle's stream is currently admitted.
func (a *FleetAdmission) Admitted(vehicle int) bool {
	a.mu.Lock()
	defer a.mu.Unlock()
	st := a.veh[vehicle]
	return st != nil && !st.shed && !st.ended
}

// Sheds reports how many times the vehicle has been shed.
func (a *FleetAdmission) Sheds(vehicle int) int {
	a.mu.Lock()
	defer a.mu.Unlock()
	if st := a.veh[vehicle]; st != nil {
		return st.sheds
	}
	return 0
}

// History returns a copy of the shed/readmit event sequence.
func (a *FleetAdmission) History() []AdmissionEvent {
	a.mu.Lock()
	defer a.mu.Unlock()
	return append([]AdmissionEvent(nil), a.history...)
}

// Observe folds one delivered frame's latency (ms, RunnerResult.Wall) into
// the vehicle's open period. Closing it queues a bucket, which may trigger
// a decision.
func (a *FleetAdmission) Observe(vehicle int, wallMs float64) {
	if !a.shedding {
		return // pure phase-locker: nothing to decide, keep no state
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	st := a.veh[vehicle]
	if st == nil || !st.observing {
		return
	}
	if worst, closed := st.period.fold(wallMs); closed {
		st.buckets = append(st.buckets, worst)
		a.decideLocked()
	}
}

// admit is the vehicleGate entry: block while shed (and, with the phase
// barrier on, until the fleet's admission beat), false to end the stream.
func (a *FleetAdmission) admit(vehicle int) bool {
	a.mu.Lock()
	defer a.mu.Unlock()
	st := a.veh[vehicle]
	if st == nil {
		return false
	}
	for {
		if st.ended || !st.admitting {
			return false
		}
		if st.shed {
			a.cond.Wait()
			continue
		}
		if !a.phase {
			return true
		}
		// Phase barrier: park until every actively admitted stream is
		// parked, then release the round together. Alignment is best
		// effort — a stream shed mid-wait re-parks without the round —
		// and never load-bearing for results, only for pacing.
		gen := a.gen
		a.waiting++
		a.maybeReleaseLocked()
		for a.gen == gen && !st.shed && !st.ended && st.admitting {
			a.cond.Wait()
		}
		if a.gen != gen {
			return true // round released (a concurrent shed takes effect next frame)
		}
		a.waiting-- // un-park: shed or ended while waiting, recheck
	}
}

// activeLocked counts actively admitted streams (running, not shed).
func (a *FleetAdmission) activeLocked() int {
	n := 0
	for _, id := range a.order {
		if st := a.veh[id]; st.admitting && !st.shed && !st.ended {
			n++
		}
	}
	return n
}

// live reports whether the stream still has a say in decisions: deliveries
// pending, or completed buckets no decision has consumed yet.
func (st *admVehicle) live() bool {
	return !st.ended && (st.observing || len(st.buckets) > 0)
}

// participantsLocked lists the decision barrier's members, in ID order:
// every live stream that is not shed.
func (a *FleetAdmission) participantsLocked() []*admVehicle {
	var ps []*admVehicle
	for _, id := range a.order {
		if st := a.veh[id]; st.live() && !st.shed {
			ps = append(ps, st)
		}
	}
	return ps
}

// maybeReleaseLocked fires the phase barrier when every active stream is
// parked at it.
func (a *FleetAdmission) maybeReleaseLocked() {
	if !a.phase || a.waiting == 0 {
		return
	}
	if a.waiting >= a.activeLocked() {
		a.gen++
		a.waiting = 0
		a.cond.Broadcast()
	}
}

// membershipChangedLocked re-evaluates everything that watches the active
// set: the phase barrier and blocked gates.
func (a *FleetAdmission) membershipChangedLocked() {
	a.maybeReleaseLocked()
	a.cond.Broadcast()
}

// decideLocked runs decision epochs while every participant has an
// unconsumed bucket (a stream that raced ahead may have several queued;
// each decision consumes exactly one per stream, FIFO, so decision inputs
// are schedule-independent). Membership is keyed on live, not admitting: a
// stream whose SRC already exhausted stays in the barrier until its
// trailing in-flight deliveries are folded in, Leave fires AND its queued
// buckets are consumed. Only when the pass leaves nobody to deliver another
// bucket are the still-shed streams ended — there are no more decision
// epochs, so a parked stream could otherwise never resume.
func (a *FleetAdmission) decideLocked() {
	for {
		admitted := a.participantsLocked()
		if len(admitted) == 0 {
			for _, id := range a.order {
				if st := a.veh[id]; st.live() && st.shed {
					st.ended = true
				}
			}
			a.cond.Broadcast()
			return
		}
		for _, st := range admitted {
			if len(st.buckets) == 0 {
				return
			}
		}
		a.decisions++
		// The worst bucket names both the pressure and the victim; ties go
		// to the highest ID, so vehicle 0 is the most senior.
		worst := 0
		for i, st := range admitted {
			if st.buckets[0] >= admitted[worst].buckets[0] {
				worst = i
			}
		}
		victim := admitted[worst]
		pressure, m := a.law.judge(victim.buckets[0])
		for _, st := range admitted {
			st.buckets = st.buckets[1:]
		}

		switch {
		case m == moveBackOff && len(admitted) > 1: // never shed the last stream
			a.shedLocked(victim, pressure)
		case m == moveRecover && a.readmitLocked(len(admitted), pressure):
			a.law.recovered()
		}
	}
}

// shedLocked parks one stream and records the event.
func (a *FleetAdmission) shedLocked(st *admVehicle, pressure float64) {
	st.shed = true
	st.sheds++
	st.shedAt = len(a.history)
	a.history = append(a.history, AdmissionEvent{Decision: a.decisions, Vehicle: st.id, Shed: true, Pressure: pressure})
	a.membershipChangedLocked()
}

// readmitLocked resumes the stream shed longest ago, unless the admitted
// streams already fill the MaxAdmitted cap, so a stream that keeps cycling
// cannot starve one shed before it. Reports whether one was readmitted.
func (a *FleetAdmission) readmitLocked(admitted int, pressure float64) bool {
	if a.maxAdm > 0 && admitted >= a.maxAdm {
		return false
	}
	var next *admVehicle
	for _, id := range a.order {
		if st := a.veh[id]; st.live() && st.shed && (next == nil || st.shedAt < next.shedAt) {
			next = st
		}
	}
	if next == nil {
		return false
	}
	next.shed = false
	a.history = append(a.history, AdmissionEvent{Decision: a.decisions, Vehicle: next.id, Shed: false, Pressure: pressure})
	a.membershipChangedLocked()
	return true
}

// vehicleGate is one vehicle's view of the controller, handed to its runner
// (RunnerOptions.gate).
type vehicleGate struct {
	a  *FleetAdmission
	id int
}

func (g vehicleGate) Admit() bool { return g.a.admit(g.id) }

// Leave on the gate is the ADMITTING half only: the runner calls it when
// the SRC stops asking for frames, while deliveries may still be in
// flight. The fleet's consumer issues the full FleetAdmission.Leave after
// the last delivery is observed.
func (g vehicleGate) Leave() { g.a.leaveAdmitting(g.id) }
